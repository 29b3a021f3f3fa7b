package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain waits until the writer has written everything pending and run
// any compaction due.
func drain(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
}

// setWriteAt replaces the writer's batch write.
func setWriteAt(s *Store, w func(f *os.File, b []byte, off int64) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeAt = w
}

// holdWriter makes the writer's next batch write wait until the
// returned release is called; entered is closed once the writer holds a
// batch. release may be called more than once, so a test defers it
// after deferring Close: a failing test then releases the writer before
// Close waits for it.
func holdWriter(s *Store) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once bool
	setWriteAt(s, func(f *os.File, b []byte, off int64) error {
		if !once {
			once = true
			close(in)
			<-out
		}
		return writeAt(f, b, off)
	})
	return in, sync.OnceFunc(func() { close(out) })
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// A put returns before its record reaches the file, and the record
// reads back through every lookup from the in-flight and pending
// batches while the writer is held.
func TestPutReadsBackWhileWriterHeld(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entered, release := holdWriter(s)
	defer release()
	ids := map[string]string{}
	for i, l := range []string{"held-a", "held-b", "held-c"} {
		id, err := s.PutResult(dg(l), l, res(l))
		if err != nil {
			t.Fatal(err)
		}
		ids[l] = id
		if i == 0 {
			<-entered // held-a is in flight; the rest stay pending
		}
	}
	if err := s.PutTrace("t9", []byte("held trace")); err != nil {
		t.Fatal(err)
	}
	if n := logSize(t, dir); n != 0 {
		t.Fatalf("log holds %d bytes while the writer is held", n)
	}
	for l, id := range ids {
		if got, gotID, ok := s.GetResult(dg(l)); !ok || gotID != id || got.Output != res(l).Output {
			t.Fatalf("GetResult(%s) = (%q, %q, %t) while held", l, got.Output, gotID, ok)
		}
		if r, ok := s.RunByID(id); !ok || r.Result.Output != res(l).Output {
			t.Fatalf("RunByID(%s) = (%q, %t) while held", id, r.Result.Output, ok)
		}
	}
	if tr, ok := s.GetTrace("t9"); !ok || string(tr) != "held trace" {
		t.Fatalf("GetTrace = (%q, %t) while held", tr, ok)
	}
	if n := len(s.Runs("")); n != 3 {
		t.Fatalf("Runs lists %d records while held, want 3", n)
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for l, id := range ids {
		if _, gotID, ok := s2.GetResult(dg(l)); !ok || gotID != id {
			t.Fatalf("%s lost across Close and reopen", l)
		}
	}
	if _, ok := s2.GetTrace("t9"); !ok {
		t.Fatal("trace lost across Close and reopen")
	}
}

// Past pendingLimit a put waits for the writer instead of growing the
// pending buffer.
func TestPutWaitsPastPendingLimit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entered, release := holdWriter(s)
	defer release()
	big := func(l string) (Digest, string) {
		return dg(l), strings.Repeat("x", pendingLimit/4)
	}
	put := func(l string) error {
		d, out := big(l)
		r := res(l)
		r.Output = out
		_, err := s.PutResult(d, l, r)
		return err
	}
	if err := put("big-0"); err != nil {
		t.Fatal(err)
	}
	<-entered
	i := 1
	for ; ; i++ {
		s.mu.Lock()
		full := len(s.pending) >= pendingLimit
		s.mu.Unlock()
		if full {
			break
		}
		if err := put(fmt.Sprintf("big-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- put(fmt.Sprintf("big-%d", i)) }()
	select {
	case err := <-done:
		t.Fatalf("put past the pending limit returned (%v) while the writer was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.GetResult(dg(fmt.Sprintf("big-%d", i))); !ok {
		t.Fatal("the put that waited did not read back")
	}
}

// Copies of the log taken while the writer runs, one inside each batch
// write and one after it, each reopen to a prefix of the puts.
func TestLogCopiesReopenToPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var copies [][]byte
	snap := func(f *os.File) {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Error(err)
		}
		copies = append(copies, data)
	}
	setWriteAt(s, func(f *os.File, b []byte, off int64) error {
		half := len(b) / 2
		if err := writeAt(f, b[:half], off); err != nil {
			return err
		}
		snap(f)
		if err := writeAt(f, b[half:], off+int64(half)); err != nil {
			return err
		}
		snap(f)
		return nil
	})
	const puts = 60
	for i := 0; i < puts; i++ {
		l := fmt.Sprintf("pfx-%02d", i)
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(copies) < 2 {
		t.Fatalf("%d copies taken", len(copies))
	}
	last := 0
	for i, data := range copies {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(cdir)
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		n := c.Len()
		for j := 0; j < puts; j++ {
			l := fmt.Sprintf("pfx-%02d", j)
			got, id, ok := c.GetResult(dg(l))
			if ok != (j < n) {
				t.Fatalf("copy %d holds %d records but %s present=%t", i, n, l, ok)
			}
			if ok && (id != fmt.Sprintf("r%d", j) || got.Output != res(l).Output) {
				t.Fatalf("copy %d: %s read back as %s %q", i, l, id, got.Output)
			}
		}
		if n < last {
			t.Fatalf("copy %d holds %d records, an earlier one %d", i, n, last)
		}
		last = n
		c.Close()
	}
	if last != puts {
		t.Fatalf("last copy holds %d records, want %d", last, puts)
	}
}

// A failed batch write leaves no index entry pointing at bytes the file
// does not hold: the batch's records miss, the log is cut back to the
// last good offset, records framed after the batch move down and still
// read back, and the failure is counted and returned once from the next
// put and from Close.
func TestWriteFailureDropsBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutResult(dg("wf-good"), "wf-good", res("wf-good")); err != nil {
		t.Fatal(err)
	}
	good := s.DiskSize()

	errDisk := errors.New("disk full")
	in, out := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(out) })
	defer release()
	calls := 0
	var nextOff, nextSize int64 // where the batch after the failed one starts, and the file's size then
	setWriteAt(s, func(f *os.File, b []byte, off int64) error {
		calls++
		if calls > 1 {
			if calls == 2 {
				st, err := f.Stat()
				if err != nil {
					return err
				}
				nextOff, nextSize = off, st.Size()
			}
			return writeAt(f, b, off)
		}
		close(in)
		<-out
		// A partial write: half the batch reaches the file.
		if err := writeAt(f, b[:len(b)/2], off); err != nil {
			return err
		}
		return errDisk
	})
	if _, err := s.PutResult(dg("wf-lost"), "wf-lost", res("wf-lost")); err != nil {
		t.Fatal(err)
	}
	<-in
	if err := s.PutTrace("t-after", []byte("after the failed batch")); err != nil {
		t.Fatal(err)
	}
	release()
	drain(s)

	if _, _, ok := s.GetResult(dg("wf-lost")); ok {
		t.Fatal("record of the failed batch still served")
	}
	if _, ok := s.RunByID("r1"); ok {
		t.Fatal("run id of the failed batch still served")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d after the failed batch, want 1", got)
	}
	if tr, ok := s.GetTrace("t-after"); !ok || string(tr) != "after the failed batch" {
		t.Fatalf("record framed after the failed batch = (%q, %t)", tr, ok)
	}
	if nextOff != good || nextSize != good {
		t.Fatalf("next batch written at %d into a file of %d bytes, want both at the last good offset %d", nextOff, nextSize, good)
	}
	if c := s.Counters()[ctrWriteErr]; c != 1 {
		t.Fatalf("%s = %d, want 1", ctrWriteErr, c)
	}
	if _, err := s.PutResult(dg("wf-next"), "wf-next", res("wf-next")); !errors.Is(err, errDisk) {
		t.Fatalf("next put returned %v, want the write failure", err)
	}
	id, err := s.PutResult(dg("wf-next"), "wf-next", res("wf-next"))
	if err != nil {
		t.Fatalf("put after the reported failure: %v", err)
	}
	if got := s.DiskSize(); got != logSize(t, dir) || got <= good {
		t.Fatalf("DiskSize %d, file %d, good prefix %d", got, logSize(t, dir), good)
	}
	if err := s.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close returned %v, want the write failure", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c := s2.Counters()[ctrBadRecord] + s2.Counters()[ctrTruncated]; c != 0 {
		t.Fatalf("reopen found %d bad or torn records", c)
	}
	for _, l := range []string{"wf-good", "wf-next"} {
		if _, _, ok := s2.GetResult(dg(l)); !ok {
			t.Fatalf("%s lost across reopen", l)
		}
	}
	if _, gotID, _ := s2.GetResult(dg("wf-next")); gotID != id {
		t.Fatalf("wf-next reopened as %q, want %q", gotID, id)
	}
	if _, _, ok := s2.GetResult(dg("wf-lost")); ok {
		t.Fatal("record of the failed batch came back after reopen")
	}
	if _, ok := s2.GetTrace("t-after"); !ok {
		t.Fatal("record framed after the failed batch lost across reopen")
	}
}

// A failed compaction loses nothing: the pending batch it took is
// written after it, every live record reads back before and after a
// reopen, and the failure is counted and returned by Close.
func TestCompactionFailureKeepsPending(t *testing.T) {
	rec := recordSize(t, "cf-00")
	dir := t.TempDir()
	// A directory where the compaction's temp file goes makes every
	// compaction fail.
	tmp := filepath.Join(dir, logName+".compact")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, WithMaxBytes(3*rec))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		l := fmt.Sprintf("cf-%02d", i)
		// The next put returns a failed compaction once and stores
		// nothing.
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil && !strings.Contains(err.Error(), "compact") {
			t.Fatal(err)
		}
	}
	drain(s)
	if c := s.Counters()[ctrWriteErr]; c == 0 {
		t.Fatal("no compaction failed")
	}
	if c := s.Counters()[ctrCompact]; c != 0 {
		t.Fatalf("%s = %d with every compaction failing", ctrCompact, c)
	}
	runs := s.Runs("")
	if len(runs) == 0 {
		t.Fatal("no live records")
	}
	for _, r := range runs {
		if got, ok := s.RunByID(r.ID); !ok || got.Result.Output != res(r.Key).Output {
			t.Fatalf("live record %s read back as (%q, %t)", r.ID, got.Result.Output, ok)
		}
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("Close returned %v, want the failed compaction", err)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, r := range runs {
		if got, ok := s2.RunByID(r.ID); !ok || got.Result.Output != res(r.Key).Output {
			t.Fatalf("live record %s lost across reopen: (%q, %t)", r.ID, got.Result.Output, ok)
		}
	}
}
