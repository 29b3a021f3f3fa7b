package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// dg builds a distinct digest from a label, via the real canonicalizer
// so tests exercise the same preimage shape the serving layer uses.
func dg(label string) Digest {
	return ResultDigest("cat0", label, 4, nil, nil, core.DefaultSeed, false, 1)
}

// res builds a distinguishable result payload.
func res(label string) core.Result {
	return core.Result{Key: label, Output: "output of " + label + "\n", NumTasks: 4}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := res("reduction2.omp")
	want.Output = "line one\nline two with ünïcode\n"
	id, err := s.PutResult(dg("a"), want.Key, want)
	if err != nil {
		t.Fatal(err)
	}
	got, gotID, ok := s.GetResult(dg("a"))
	if !ok {
		t.Fatal("stored digest missed")
	}
	if gotID != id {
		t.Fatalf("id mismatch: put %q, get %q", id, gotID)
	}
	if got.Output != want.Output {
		t.Fatalf("round trip not byte-identical:\nput: %q\ngot: %q", want.Output, got.Output)
	}
	if _, _, ok := s.GetResult(dg("never-stored")); ok {
		t.Fatal("phantom hit for a digest never stored")
	}
	// Idempotent re-put returns the same id without a second record.
	id2, err := s.PutResult(dg("a"), want.Key, want)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("re-put minted a new id: %q vs %q", id2, id)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after idempotent re-put, want 1", s.Len())
	}
}

func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := res("sequenceNumbers.mpi")
	id, err := s.PutResult(dg("persist"), want.Key, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTrace("t7", []byte(`{"traceEvents":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, gotID, ok := s2.GetResult(dg("persist"))
	if !ok || gotID != id || got.Output != want.Output {
		t.Fatalf("reopen lost the record: ok=%t id=%q output=%q", ok, gotID, got.Output)
	}
	tr, ok := s2.GetTrace("t7")
	if !ok || string(tr) != `{"traceEvents":[]}` {
		t.Fatalf("reopen lost the trace: ok=%t data=%q", ok, tr)
	}
	if n := s2.MaxTraceSeq(""); n != 7 {
		t.Fatalf("MaxTraceSeq = %d, want 7", n)
	}
	// New ids must not collide with persisted ones.
	id2, err := s2.PutResult(dg("persist2"), "other", res("other"))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("run-id sequence reset after reopen: %q reused", id2)
	}
}

// Run ids advance by one per stored result, and a reopened store
// continues the sequence where the log left it.
func TestRunIDsAdvanceByOne(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"r0", "r1", "r2"} {
		key := fmt.Sprintf("k%d", i)
		id, err := s.PutResult(dg(key), key, res(key))
		if err != nil || id != want {
			t.Fatalf("put %d = (%q, %v), want %q", i, id, err, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if id, err := s2.PutResult(dg("k3"), "k3", res("k3")); err != nil || id != "r3" {
		t.Fatalf("put after reopen = (%q, %v), want r3", id, err)
	}
}

func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(dg("good"), "good", res("good")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a header promising more bytes than
	// the file holds.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 8+10)
	binary.BigEndian.PutUint32(torn[0:4], 500) // promises 500 payload bytes
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, ok := s2.GetResult(dg("good")); !ok {
		t.Fatal("record before the torn tail was lost")
	}
	if c := s2.Counters()[ctrTruncated]; c != 1 {
		t.Fatalf("%s = %d, want 1", ctrTruncated, c)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d → %d bytes", before.Size(), after.Size())
	}
	// The store must be appendable again at the truncated offset.
	if _, err := s2.PutResult(dg("post-crash"), "p", res("post-crash")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.GetResult(dg("post-crash")); !ok {
		t.Fatal("append after truncation missed")
	}

	// A crash can stop the last append at any byte, in a plain log or in
	// one compaction rewrote. Every cut must reopen to exactly the
	// earlier records, count one truncation, and take new puts.
	t.Run("plain", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		earlier := []string{"cut-0", "cut-1", "cut-2"}
		for _, l := range earlier {
			if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
				t.Fatal(err)
			}
		}
		start := s.DiskSize()
		if _, err := s.PutResult(dg("cut-last"), "cut-last", res("cut-last")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		checkEveryCut(t, dir, start, earlier, "cut-last")
	})
	t.Run("compacted", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, WithMaxBytes(3*recordSize(t, "cmp-00")))
		if err != nil {
			t.Fatal(err)
		}
		// Put until a put compacts. Compaction writes in recency order,
		// so that put's record ends the rewritten log. Draining after
		// each put keeps later puts out of the compaction's way.
		var last string
		for i := 0; s.Counters()[ctrCompact] == 0; i++ {
			last = fmt.Sprintf("cmp-%02d", i)
			if _, err := s.PutResult(dg(last), last, res(last)); err != nil {
				t.Fatal(err)
			}
			drain(s)
		}
		var earlier []string
		for _, r := range s.Runs("") {
			if r.Key != last {
				earlier = append(earlier, r.Key)
			}
		}
		start := s.DiskSize() - s.results[dg(last)].size
		s.Close()
		checkEveryCut(t, dir, start, earlier, last)
	})
}

// checkEveryCut truncates dir's log at every offset in (start, end of
// file) — inside the record of label, the last in the log — and checks
// each reopen: earlier records hit, label misses, the cut is counted,
// and a new put reads back.
func checkEveryCut(t *testing.T, dir string, start int64, earlier []string, label string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := start + 1; cut < int64(len(data)); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(cdir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for _, l := range earlier {
			if _, _, ok := s.GetResult(dg(l)); !ok {
				t.Fatalf("cut at %d: earlier record %s lost", cut, l)
			}
		}
		if _, _, ok := s.GetResult(dg(label)); ok {
			t.Fatalf("cut at %d: torn record %s served", cut, label)
		}
		if s.Len() != len(earlier) {
			t.Fatalf("cut at %d: Len = %d, want %d", cut, s.Len(), len(earlier))
		}
		if c := s.Counters()[ctrTruncated]; c != 1 {
			t.Fatalf("cut at %d: %s = %d, want 1", cut, ctrTruncated, c)
		}
		if _, err := s.PutResult(dg("after-cut"), "after-cut", res("after-cut")); err != nil {
			t.Fatalf("cut at %d: put after reopen: %v", cut, err)
		}
		if got, _, ok := s.GetResult(dg("after-cut")); !ok || got.Output != res("after-cut").Output {
			t.Fatalf("cut at %d: put after reopen did not read back", cut)
		}
		s.Close()
	}
}

func TestReopenSkipsChecksumBadRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(dg("first"), "first", res("first")); err != nil {
		t.Fatal(err)
	}
	firstEnd := s.DiskSize()
	if _, err := s.PutResult(dg("second"), "second", res("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(dg("third"), "third", res("third")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte inside the middle record (past its header).
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+8+5] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, ok := s2.GetResult(dg("first")); !ok {
		t.Fatal("record before the corrupt one was lost")
	}
	if _, _, ok := s2.GetResult(dg("second")); ok {
		t.Fatal("checksum-bad record served as a hit")
	}
	if _, _, ok := s2.GetResult(dg("third")); !ok {
		t.Fatal("record after the corrupt one was lost — skip did not resync")
	}
	if c := s2.Counters()[ctrBadRecord]; c != 1 {
		t.Fatalf("%s = %d, want 1", ctrBadRecord, c)
	}
}

// recordSize measures the on-disk footprint of one representative
// record so capacity tests can size budgets in whole records.
func recordSize(t *testing.T, label string) int64 {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutResult(dg(label), label, res(label)); err != nil {
		t.Fatal(err)
	}
	return s.DiskSize()
}

// traceSize measures the on-disk footprint of one trace record.
func traceSize(t *testing.T, id string, data []byte) int64 {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutTrace(id, data); err != nil {
		t.Fatal(err)
	}
	return s.DiskSize()
}

func TestEvictionAtCapacityBoundary(t *testing.T) {
	// Labels of equal length so every record has the same footprint.
	labels := []string{"ev-aa", "ev-bb", "ev-cc", "ev-dd"}
	rec := recordSize(t, labels[0])
	trace := []byte(`{"traceEvents":[]}`)
	trc := traceSize(t, "t1", trace)

	// Each case stores a first record, then ev-bb and ev-cc, and refreshes
	// the first one so ev-bb becomes the LRU victim. The trace case puts
	// a trace record first: results and traces share one recency order.
	cases := []struct {
		name    string
		trace   bool
		refresh func(s *Store, id string) bool
	}{
		{"GetResult", false, func(s *Store, _ string) bool {
			_, _, ok := s.GetResult(dg(labels[0]))
			return ok
		}},
		{"RunByID", false, func(s *Store, id string) bool {
			_, ok := s.RunByID(id)
			return ok
		}},
		{"re-PutResult", false, func(s *Store, id string) bool {
			got, err := s.PutResult(dg(labels[0]), labels[0], res(labels[0]))
			return err == nil && got == id
		}},
		{"GetTrace", true, func(s *Store, _ string) bool {
			_, ok := s.GetTrace("t1")
			return ok
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first, present := rec, func(s *Store) bool {
				_, _, ok := s.GetResult(dg(labels[0]))
				return ok
			}
			if c.trace {
				first, present = trc, func(s *Store) bool {
					_, ok := s.GetTrace("t1")
					return ok
				}
			}
			// Budget for exactly three records.
			s, err := Open(t.TempDir(), WithMaxBytes(first+2*rec))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var id string
			if c.trace {
				err = s.PutTrace("t1", trace)
			} else {
				id, err = s.PutResult(dg(labels[0]), labels[0], res(labels[0]))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range labels[1:3] {
				if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Counters()[ctrEvicted]; got != 0 {
				t.Fatalf("evicted %d records while under budget", got)
			}
			if !c.refresh(s, id) {
				t.Fatal("refresh of the first record missed")
			}
			// The fourth record must evict exactly one.
			if _, err := s.PutResult(dg(labels[3]), labels[3], res(labels[3])); err != nil {
				t.Fatal(err)
			}
			if got := s.Counters()[ctrEvicted]; got != 1 {
				t.Fatalf("evicted %d records admitting one over budget, want 1", got)
			}
			if _, _, ok := s.GetResult(dg(labels[1])); ok {
				t.Fatal("LRU victim ev-bb still present")
			}
			if !present(s) {
				t.Fatal("refreshed first record evicted")
			}
			for _, l := range labels[2:] {
				if _, _, ok := s.GetResult(dg(l)); !ok {
					t.Fatalf("%s evicted though it was not the LRU victim", l)
				}
			}
		})
	}

	// Reopening takes log order as the recency order: with no touches
	// since, the first record in the log is the next victim.
	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labels[:3] {
			if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		s, err = Open(dir, WithMaxBytes(3*rec))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.PutResult(dg(labels[3]), labels[3], res(labels[3])); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.GetResult(dg(labels[0])); ok {
			t.Fatal("first record in the log survived as if recently used")
		}
		for _, l := range labels[1:] {
			if _, _, ok := s.GetResult(dg(l)); !ok {
				t.Fatalf("%s evicted though it was not the LRU victim", l)
			}
		}
	})

	// Compaction writes live records in recency order, so a reopen after
	// it keeps the order the store had, not the order of first append.
	t.Run("reopen-after-compaction", func(t *testing.T) {
		// Three records and some slack: ids from r10 on make records a
		// byte longer.
		rec := recordSize(t, "cmp-00")
		budget := 3*rec + rec/2
		dir := t.TempDir()
		s, err := Open(dir, WithMaxBytes(budget))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			l := fmt.Sprintf("cmp-%02d", i)
			if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
				t.Fatal(err)
			}
		}
		// Live: cmp-03..05. Touch cmp-03, then the next put evicts cmp-04
		// and compacts, leaving recency cmp-05, cmp-03, cmp-06.
		if _, _, ok := s.GetResult(dg("cmp-03")); !ok {
			t.Fatal("warm read missed")
		}
		if _, err := s.PutResult(dg("cmp-06"), "cmp-06", res("cmp-06")); err != nil {
			t.Fatal(err)
		}
		drain(s)
		if c := s.Counters()[ctrCompact]; c != 1 {
			t.Fatalf("%s = %d, want 1", ctrCompact, c)
		}
		s.Close()
		s, err = Open(dir, WithMaxBytes(budget))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.PutResult(dg("cmp-07"), "cmp-07", res("cmp-07")); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.GetResult(dg("cmp-05")); ok {
			t.Fatal("least recently used cmp-05 survived the reopen")
		}
		for _, l := range []string{"cmp-03", "cmp-06", "cmp-07"} {
			if _, _, ok := s.GetResult(dg(l)); !ok {
				t.Fatalf("%s evicted though it was not the LRU victim", l)
			}
		}
	})
}

func TestEvictionCapacityOne(t *testing.T) {
	rec := recordSize(t, "solo1")
	s, err := Open(t.TempDir(), WithMaxBytes(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, l := range []string{"solo1", "solo2", "solo3"} {
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.GetResult(dg(l)); !ok {
			t.Fatalf("just-stored %s missed", l)
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d at capacity one", s.Len())
		}
		if i > 0 {
			prev := []string{"solo1", "solo2"}[i-1]
			if _, _, ok := s.GetResult(dg(prev)); ok {
				t.Fatalf("%s survived at capacity one", prev)
			}
		}
	}
	if s.DiskSize() > 2*rec {
		t.Fatalf("disk %d exceeds 2× budget %d — compaction not keeping up", s.DiskSize(), 2*rec)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	s, err := Open(t.TempDir(), WithMaxBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := res("big")
	big.Output = strings.Repeat("x", 4096)
	if _, err := s.PutResult(dg("big"), "big", big); err != ErrOversize {
		t.Fatalf("oversize put returned %v, want ErrOversize", err)
	}
	if c := s.Counters()[ctrOversize]; c != 1 {
		t.Fatalf("%s = %d, want 1", ctrOversize, c)
	}
}

func TestResultMiss(t *testing.T) {
	rec := recordSize(t, "missA1")
	s, err := Open(t.TempDir(), WithMaxBytes(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Store A, then evict it by storing B at capacity one.
	if _, err := s.PutResult(dg("missA1"), "a", res("missA1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(dg("missB1"), "b", res("missB1")); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters()[ctrEvicted]; c != 1 {
		t.Fatalf("%s = %d, want 1", ctrEvicted, c)
	}
	for _, l := range []string{"missA1", "never-seen-by-this-store"} {
		before := s.Counters()[ctrMiss]
		if _, _, ok := s.GetResult(dg(l)); ok {
			t.Fatalf("%s served as a hit", l)
		}
		if got := s.Counters()[ctrMiss]; got != before+1 {
			t.Fatalf("miss on %s: %s went %d → %d, want +1", l, ctrMiss, before, got)
		}
	}
	for name := range s.Counters() {
		if strings.HasPrefix(name, "store.bloom.") {
			t.Fatalf("counter %s still reported", name)
		}
	}
}

func TestRunsHistory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := map[string]string{}
	for i := 0; i < 3; i++ {
		l := fmt.Sprintf("hist-red-%d", i)
		id, err := s.PutResult(dg(l), "reduction2.omp", res(l))
		if err != nil {
			t.Fatal(err)
		}
		ids[l] = id
	}
	if _, err := s.PutResult(dg("hist-other"), "forkJoin.pthreads", res("hist-other")); err != nil {
		t.Fatal(err)
	}

	all := s.Runs("")
	if len(all) != 4 {
		t.Fatalf("Runs(\"\") = %d records, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if runSeq(all[i-1].ID) >= runSeq(all[i].ID) {
			t.Fatalf("Runs not ordered by id: %q before %q", all[i-1].ID, all[i].ID)
		}
	}
	red := s.Runs("reduction2.omp")
	if len(red) != 3 {
		t.Fatalf("Runs(reduction2.omp) = %d records, want 3", len(red))
	}
	for _, r := range red {
		if r.Key != "reduction2.omp" {
			t.Fatalf("history for wrong key: %q", r.Key)
		}
	}
	full, ok := s.RunByID(ids["hist-red-1"])
	if !ok {
		t.Fatal("RunByID missed a live id")
	}
	if full.Result.Output != res("hist-red-1").Output {
		t.Fatalf("RunByID payload mismatch: %q", full.Result.Output)
	}
	if _, ok := s.RunByID("r9999"); ok {
		t.Fatal("RunByID hit for an id never minted")
	}
}

func TestTraceSupersede(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutTrace("t1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTrace("t1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetTrace("t1")
	if !ok || string(got) != "v2" {
		t.Fatalf("GetTrace = %q, %t; want v2", got, ok)
	}
	if _, ok := s.GetTrace("t404"); ok {
		t.Fatal("phantom trace")
	}
}

func TestCompactionBoundsDisk(t *testing.T) {
	rec := recordSize(t, "cmp-00")
	budget := 4 * rec
	s, err := Open(t.TempDir(), WithMaxBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		l := fmt.Sprintf("cmp-%02d", i)
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
			t.Fatal(err)
		}
		if s.DiskSize() > 2*budget {
			t.Fatalf("after %d puts disk = %d, exceeds 2×budget %d", i+1, s.DiskSize(), 2*budget)
		}
	}
	if c := s.Counters()[ctrCompact]; c == 0 {
		t.Fatal("40 puts into a 4-record budget never compacted")
	}
	// The latest records must still be readable after compactions.
	if _, _, ok := s.GetResult(dg("cmp-39")); !ok {
		t.Fatal("latest record lost across compaction")
	}
}

func TestShrunkBudgetEvictsOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l := fmt.Sprintf("shr-%d", i)
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
			t.Fatal(err)
		}
	}
	rec := s.DiskSize() / 6
	s.Close()

	s2, err := Open(dir, WithMaxBytes(2*rec))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() > 2 {
		t.Fatalf("Len = %d after reopening with a 2-record budget", s2.Len())
	}
}

// Puts, gets and traces from eight goroutines race the writer's batch
// writes and compactions under a small budget; afterwards every live
// record reads back, before and after Close and reopen.
func TestConcurrentStress(t *testing.T) {
	rec := recordSize(t, "st-00-00")
	// Small budget so eviction and compaction churn under the race
	// detector while readers are in flight.
	dir := t.TempDir()
	s, err := Open(dir, WithMaxBytes(8*rec))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers, iters = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l := fmt.Sprintf("st-%02d-%02d", w, i%10)
				switch i % 3 {
				case 0:
					if _, err := s.PutResult(dg(l), l, res(l)); err != nil && err != ErrOversize {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if r, _, ok := s.GetResult(dg(l)); ok && r.Output != res(l).Output {
						t.Errorf("hit for %s returned wrong payload %q", l, r.Output)
						return
					}
				case 2:
					if err := s.PutTrace(fmt.Sprintf("t%d", w*iters+i), []byte(l)); err != nil {
						t.Errorf("trace: %v", err)
						return
					}
					s.Runs(l)
				}
			}
		}(w)
	}
	wg.Wait()
	drain(s)
	if c := s.Counters()[ctrCompact]; c == 0 {
		t.Fatal("the storm never compacted")
	}
	// Integrity after the storm: whatever is live must read back clean.
	live := map[string]string{}
	for _, r := range s.Runs("") {
		full, ok := s.RunByID(r.ID)
		if !ok || full.Result.Output != res(full.Key).Output {
			t.Fatalf("live record %s read back as (%q, %t)", r.ID, full.Result.Output, ok)
		}
		live[r.ID] = full.Key
	}
	var traces []string
	for id := range s.traces {
		traces = append(traces, id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen under the default budget, so dead records replayed from the
	// log cannot push a live one out.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id, key := range live {
		if r, ok := s2.RunByID(id); !ok || r.Result.Output != res(key).Output {
			t.Fatalf("live record %s lost across reopen: (%q, %t)", id, r.Result.Output, ok)
		}
		if _, gotID, ok := s2.GetResult(dg(key)); !ok || gotID != id {
			t.Fatalf("digest of %s reopened as (%q, %t)", id, gotID, ok)
		}
	}
	for _, id := range traces {
		if _, ok := s2.GetTrace(id); !ok {
			t.Fatalf("live trace %s lost across reopen", id)
		}
	}
}

func TestDigestCanonicalization(t *testing.T) {
	dirs := []core.DirectiveState{{Name: "omp", Enabled: true}, {Name: "verbose", Enabled: false}}
	a := ResultDigest("cat", "k", 4, dirs, nil, 42, false, 1)
	b := ResultDigest("cat", "k", 4, dirs, nil, 42, false, 1)
	if a != b {
		t.Fatal("identical configurations produced different digests")
	}
	variants := []Digest{
		ResultDigest("cat2", "k", 4, dirs, nil, 42, false, 1), // catalog changed
		ResultDigest("cat", "k2", 4, dirs, nil, 42, false, 1), // key changed
		ResultDigest("cat", "k", 8, dirs, nil, 42, false, 1),  // tasks changed
		ResultDigest("cat", "k", 4, dirs, nil, 43, false, 1),  // seed changed
		ResultDigest("cat", "k", 4, dirs, nil, 42, true, 1),   // transport changed
		ResultDigest("cat", "k", 4, dirs, nil, 42, false, 2),  // nodes changed
		ResultDigest("cat", "k", 4, []core.DirectiveState{{Name: "omp", Enabled: false}, {Name: "verbose", Enabled: false}}, nil, 42, false, 1),
		ResultDigest("cat", "k", 4, dirs, []core.ParamState{{Name: "n", Value: 512}}, 42, false, 1),  // params appeared
		ResultDigest("cat", "k", 4, dirs, []core.ParamState{{Name: "n", Value: 1024}}, 42, false, 1), // param value changed
	}
	seen := map[Digest]bool{a: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collided with another configuration", i)
		}
		seen[v] = true
	}
	// Params canonicalization: nil and empty resolve identically, and a
	// param-less preimage has no param lines.
	if ResultDigest("cat", "k", 4, dirs, []core.ParamState{}, 42, false, 1) != a {
		t.Fatal("empty param set changed the digest")
	}
	// The preimage, pinned literally. Its version line moves with any
	// change of a patternlet's output format, so a store written before
	// the change never serves a transcript in the old format.
	if want := sha256.Sum256([]byte("patternlet-run/v2\ncatalog=cat\nkey=k\ntasks=4\nseed=42\ntcp=false\nnodes=1\ntoggle omp=true\ntoggle verbose=false\n")); a != want {
		t.Fatalf("digest %s, want the SHA-256 of the v2 preimage", a)
	}

	// CRC framing sanity: the table is Castagnoli, not IEEE.
	if crc32.Checksum([]byte("x"), crcTable) == crc32.ChecksumIEEE([]byte("x")) {
		t.Fatal("store is framing with the IEEE polynomial")
	}
}

// frame wraps a payload in the log's length + CRC-32C header.
func frame(payload string) []byte {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum([]byte(payload), crcTable))
	copy(buf[8:], payload)
	return buf
}

// FuzzStoreReplay feeds arbitrary bytes to Open as the log. Replay must
// never panic, every record it indexes must read back, and a second
// Open of the file the first one left must index the same records.
func FuzzStoreReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range []string{"fz-a", "fz-b"} {
		if _, err := s.PutResult(dg(l), l, res(l)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.PutTrace("t1", []byte("v1")); err != nil {
		f.Fatal(err)
	}
	if err := s.PutTrace("t1", []byte("v2")); err != nil {
		f.Fatal(err)
	}
	s.Close()
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-3])
	flipped := append([]byte(nil), log...)
	flipped[20] ^= 0xFF
	f.Add(flipped)
	digest := dg("fz-c").String()
	var crafted []byte
	for _, p := range []string{
		`{"kind":"result","id":"r1","digest":"` + digest + `","key":"k","result":{"Output":"x"}}`,
		`{"kind":"result","id":"r1","digest":"` + dg("fz-d").String() + `","key":"k","result":{"Output":"y"}}`,
		`{"kind":"result","id":"r2","digest":"` + digest + `","result":null}`,
		`{"kind":"result","id":"r3","digest":"zz"}`,
		`{"kind":"trace","id":"t2"}`,
		`{"kind":"other","id":"r4"}`,
		`not json`,
	} {
		crafted = append(crafted, frame(p)...)
	}
	f.Add(crafted)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		runs := s.Runs("")
		if len(runs) != s.Len() {
			t.Fatalf("%d runs listed, Len = %d", len(runs), s.Len())
		}
		for _, r := range runs {
			if _, ok := s.RunByID(r.ID); !ok {
				t.Fatalf("indexed run %s does not read back by id", r.ID)
			}
			var d Digest
			b, err := hex.DecodeString(r.Digest)
			if err != nil || len(b) != len(d) {
				t.Fatalf("run %s lists digest %q", r.ID, r.Digest)
			}
			copy(d[:], b)
			if _, id, ok := s.GetResult(d); !ok || id != r.ID {
				t.Fatalf("indexed run %s does not read back by digest (ok=%t id=%q)", r.ID, ok, id)
			}
		}
		var traces []string
		for id := range s.traces {
			traces = append(traces, id)
		}
		for _, id := range traces {
			if _, ok := s.GetTrace(id); !ok {
				t.Fatalf("indexed trace %s does not read back", id)
			}
		}
		n := s.Len()
		s.Close()
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		if s2.Len() != n {
			t.Fatalf("second Open indexed %d results, first %d", s2.Len(), n)
		}
	})
}
