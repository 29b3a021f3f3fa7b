// Package store is the persistent, content-addressed run store behind
// patternletd's cache: an append-only log of checksummed records on
// disk and, in memory, one map per key space (result digest, run id,
// trace id) plus one least-recently-used list threaded through the
// entries (DESIGN.md §11.3).
//
// Two record kinds share the log: run results, content-addressed by a
// canonical digest of (catalog fingerprint, patternlet key, resolved
// task count, effective directive states, seed, transport knobs), and
// rendered Chrome traces, keyed by their serving-layer trace id. Repeat
// /run requests whose digest is already indexed are answered from the
// log without executing; traces survive the serving layer's bounded
// in-memory FIFO and daemon restarts.
//
// Durability model: every record carries a CRC-32C of its payload.
// Open replays the log sequentially — an incomplete record at the tail
// (a crash mid-append) is truncated away, a full-length record whose
// checksum fails is skipped and counted, and everything after a
// corrupt length header is discarded as unrecoverable. The store is
// therefore crash-safe without any write-ahead machinery: the log IS
// the write-ahead structure.
//
// Writes are write-behind: a put frames its record into a pending
// buffer and indexes it at once, and the store's one writer goroutine
// writes everything pending with one write(2) and runs compactions, so
// no caller waits on the file. Records not yet written read back from
// memory. Appends never fsync; a process crash loses the records still
// pending, and a cut inside the batch being written reopens as a torn
// tail.
//
// Capacity is bounded by WithMaxBytes: admission of a new record first
// evicts least-recently-used live records until it fits, and the writer
// compacts the log (live records rewritten, dead bytes dropped) once
// dead bytes exceed the budget, so once it has caught up the log stays
// under 2× the configured cap. Pending bytes are bounded too: past
// pendingLimit a put waits for the writer.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Counter names the store maintains; patternletd merges them into
// /metrics.json next to the serve.* set.
const (
	ctrHit       = "store.hit"              // GetResult served from the log
	ctrMiss      = "store.miss"             // GetResult found nothing
	ctrPut       = "store.put"              // result records appended
	ctrPutTrace  = "store.put.trace"        // trace records appended
	ctrEvicted   = "store.evicted"          // records evicted for capacity
	ctrCompact   = "store.compactions"      // log compactions run
	ctrTruncated = "store.reopen.truncated" // torn tails truncated at Open
	ctrBadRecord = "store.reopen.badrecord" // checksum-bad records skipped at Open
	ctrOversize  = "store.oversize"         // records larger than the whole budget, not stored
	ctrWriteErr  = "store.write_errors"     // batch writes and compactions that failed
)

// logName is the single log file inside the store directory.
const logName = "runs.log"

// maxRecordLen bounds one record; a length header above it is treated
// as corruption, not as an instruction to allocate gigabytes.
const maxRecordLen = 64 << 20

// pendingLimit bounds the bytes framed but not yet handed to the
// writer: a put that finds this many waits for the writer to take them,
// so a stalled disk holds back requests instead of growing memory.
const pendingLimit = 1 << 20

// spareCap is the largest written batch buffer kept for the next batch;
// a burst's larger buffer goes back to the garbage collector.
const spareCap = 64 << 10

// errClosed answers puts on a closed store.
var errClosed = errors.New("store: closed")

// ErrOversize reports a record that can never fit the configured
// capacity; the caller simply serves the run uncached.
var ErrOversize = errors.New("store: record exceeds the store's byte budget")

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Digest is the 32-byte content address of one run configuration.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ResultDigest canonicalizes one run configuration into its content
// address. catalog is the registry fingerprint (core.Registry.Fingerprint),
// tasks the RESOLVED task count (core.Patternlet.ResolveTasks), directives
// the EFFECTIVE states (core.Patternlet.EffectiveDirectives), and params
// the EFFECTIVE parameter values (core.Patternlet.EffectiveParams) —
// resolution before hashing is what makes "tasks":0 and an explicit
// default count, an omitted toggle and an explicitly-spelled default, or
// an omitted param and its declared default, the same cache entry. The
// preimage is a versioned, newline-framed string, so no field
// concatenation can collide with another; patternlets with no declared
// params contribute no param lines. The version line also stands for
// the patternlets' output formats: it moves whenever one changes, so a
// store written before the change never serves a transcript in the old
// format and each configuration it holds re-executes once. v2 came with
// the align.* checksum's format v2.
func ResultDigest(catalog, key string, tasks int, directives []core.DirectiveState, params []core.ParamState, seed int64, tcp bool, nodes int) Digest {
	var b strings.Builder
	b.WriteString("patternlet-run/v2\n")
	fmt.Fprintf(&b, "catalog=%s\nkey=%s\ntasks=%d\nseed=%d\ntcp=%t\nnodes=%d\n",
		catalog, key, tasks, seed, tcp, nodes)
	for _, d := range directives {
		fmt.Fprintf(&b, "toggle %s=%t\n", d.Name, d.Enabled)
	}
	for _, p := range params {
		fmt.Fprintf(&b, "param %s=%d\n", p.Name, p.Value)
	}
	return sha256.Sum256([]byte(b.String()))
}

// Option configures Open.
type Option func(*config)

type config struct {
	maxBytes int64
}

// DefaultMaxBytes caps the store at 64 MiB unless configured otherwise.
const DefaultMaxBytes = 64 << 20

// WithMaxBytes bounds the live bytes the store retains; admission past
// the bound evicts least-recently-used records first. Values below 1
// select the default.
func WithMaxBytes(n int64) Option {
	return func(c *config) {
		if n > 0 {
			c.maxBytes = n
		}
	}
}

// record kinds on disk.
const (
	kindResult = "result"
	kindTrace  = "trace"
)

// diskRecord is the JSON payload of one log record. JSON keeps the
// round trip gob-free and self-describing; the framing (length + CRC)
// lives outside the payload.
type diskRecord struct {
	Kind   string       `json:"kind"`
	ID     string       `json:"id"`
	Digest string       `json:"digest,omitempty"`
	Key    string       `json:"key,omitempty"`
	Stored int64        `json:"stored_unix_ms"`
	Result *core.Result `json:"result,omitempty"`
	Trace  []byte       `json:"trace,omitempty"`
}

// entry is one live record in the in-memory index: where its bytes live
// in the log and its place in the store's recency list.
type entry struct {
	kind       string
	id         string
	key        string
	digest     Digest
	off        int64 // offset of the framing header
	size       int64 // header + payload bytes
	stored     int64 // unix ms at append
	prev, next *entry
}

// RunRecord is one stored run, as surfaced by the /runs endpoints.
type RunRecord struct {
	ID       string
	Key      string
	Digest   string
	StoredMS int64
	Result   core.Result
}

// Store is the content-addressed run store. All methods are safe for
// concurrent use. One mutex guards the index and the write-behind
// buffers; under it a caller only encodes, frames and indexes in memory,
// or reads and decodes one record. Every write(2) of a record, every
// truncation after a failed write and every compaction runs on the
// writer goroutine with the mutex released: the writer takes it only to
// take a batch, to snapshot the live records for a compaction and to
// swap the compacted log in.
type Store struct {
	dir      string
	maxBytes int64
	counters telemetry.CounterSet

	mu sync.Mutex
	// work wakes the writer (bytes pending, a compaction due, Close);
	// idle wakes callers waiting on it (a full pending buffer, flush).
	work, idle sync.Cond
	f          *os.File
	disk       int64 // bytes of the log written: where the next batch goes
	size       int64 // logical log size: disk + len(inflight) + len(pending)
	live       int64 // bytes belonging to live records
	// inflight is the batch the writer is writing at offset disk with mu
	// released; pending holds the records framed since, which follow it.
	inflight, pending []byte
	spare             []byte // a written batch's buffer, reused for pending
	busy              bool   // the writer is writing a batch or compacting
	compactFailed     bool   // the last compaction failed; retried after the next batch
	putErr            error  // a write failure no put has returned yet
	writeErr          error  // the first write failure, returned by Close
	done              chan struct{}
	// writeAt writes one batch at off; the package's tests replace it to
	// hold the writer or fail a write. Read under mu.
	writeAt func(f *os.File, b []byte, off int64) error

	results map[Digest]*entry
	byID    map[string]*entry
	traces  map[string]*entry
	// lru is the sentinel of a circular list of every live entry, results
	// and traces together: lru.next is the least recently used (the next
	// eviction victim), lru.prev the most recent.
	lru     entry
	nextSeq int64
	closed  bool
}

// Open loads (or creates) the store in dir, replaying the log: torn
// tails are truncated, checksum-bad records skipped and counted, and
// the in-memory index and run-id sequence rebuilt from the surviving
// records. Log order becomes the initial recency order. Open starts
// the store's writer goroutine; Close joins it.
func Open(dir string, opts ...Option) (*Store, error) {
	cfg := config{maxBytes: DefaultMaxBytes}
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: cfg.maxBytes,
		f:        f,
		results:  map[Digest]*entry{},
		byID:     map[string]*entry{},
		traces:   map[string]*entry{},
		done:     make(chan struct{}),
		writeAt:  writeAt,
	}
	s.work.L, s.idle.L = &s.mu, &s.mu
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	// A budget smaller than the surviving records (maxBytes lowered
	// between runs) is enforced immediately.
	s.evictUntil(s.maxBytes)
	go s.writer()
	return s, nil
}

// writeAt writes b at off in f.
func writeAt(f *os.File, b []byte, off int64) error {
	_, err := f.WriteAt(b, off)
	return err
}

// replay scans the log, indexing every intact record. Called only from
// Open, before the store is shared.
func (s *Store) replay() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fileSize := st.Size()
	var off int64
	hdr := make([]byte, 8)
	for off < fileSize {
		if fileSize-off < 8 {
			break // torn header
		}
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("store: replay read: %w", err)
		}
		length := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if length == 0 || length > maxRecordLen || off+8+length > fileSize {
			// A corrupt length header (or a record whose bytes never
			// made it): nothing after this point can be trusted.
			break
		}
		payload := make([]byte, length)
		if _, err := s.f.ReadAt(payload, off+8); err != nil {
			return fmt.Errorf("store: replay read: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:8]) {
			s.counters.Counter(ctrBadRecord).Inc()
			off += 8 + length
			continue
		}
		var rec diskRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			s.counters.Counter(ctrBadRecord).Inc()
			off += 8 + length
			continue
		}
		s.index(&rec, off, 8+length)
		off += 8 + length
	}
	if off != fileSize {
		s.counters.Counter(ctrTruncated).Inc()
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	s.size, s.disk = off, off
	return nil
}

// index adds one replayed record to the in-memory maps; a later record
// with the same digest or id supersedes an earlier one (the last write
// before a crash wins, and compaction crash-overlaps resolve cleanly).
func (s *Store) index(rec *diskRecord, off, size int64) {
	e := &entry{kind: rec.Kind, id: rec.ID, key: rec.Key, off: off, size: size, stored: rec.Stored}
	switch rec.Kind {
	case kindResult:
		d, err := hex.DecodeString(rec.Digest)
		if err != nil || len(d) != sha256.Size || rec.Result == nil {
			s.counters.Counter(ctrBadRecord).Inc()
			return
		}
		copy(e.digest[:], d)
		if prev, ok := s.results[e.digest]; ok {
			s.drop(prev)
		}
		if prev, ok := s.byID[e.id]; ok {
			s.drop(prev)
		}
		s.results[e.digest] = e
		s.byID[e.id] = e
		if n := runSeq(e.id); n >= s.nextSeq {
			s.nextSeq = n + 1
		}
	case kindTrace:
		if rec.Trace == nil {
			s.counters.Counter(ctrBadRecord).Inc()
			return
		}
		if prev, ok := s.traces[e.id]; ok {
			s.drop(prev)
		}
		s.traces[e.id] = e
	default:
		s.counters.Counter(ctrBadRecord).Inc()
		return
	}
	s.live += size
	s.touch(e)
}

// runSeq parses the numeric suffix of a run id ("r17" → 17); -1 when
// the id is not ours.
func runSeq(id string) int64 {
	if !strings.HasPrefix(id, "r") {
		return -1
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// touch moves e (new or already listed) to the most-recently-used end
// of the recency list.
func (s *Store) touch(e *entry) {
	if e.next != nil {
		s.unlink(e)
	}
	e.prev, e.next = s.lru.prev, &s.lru
	e.prev.next = e
	s.lru.prev = e
}

// unlink takes e out of the recency list.
func (s *Store) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// drop removes an entry from its map and the recency list (not from
// disk; the bytes become dead and are reclaimed by compaction).
func (s *Store) drop(e *entry) {
	switch e.kind {
	case kindResult:
		if cur, ok := s.results[e.digest]; ok && cur == e {
			delete(s.results, e.digest)
		}
		if cur, ok := s.byID[e.id]; ok && cur == e {
			delete(s.byID, e.id)
		}
	case kindTrace:
		if cur, ok := s.traces[e.id]; ok && cur == e {
			delete(s.traces, e.id)
		}
	}
	s.unlink(e)
	s.live -= e.size
}

// GetResult serves a content-addressed lookup: hits read the record
// back from the log and refresh its LRU position. The returned run id
// names the stored record for /runs/{id}.
func (s *Store) GetResult(d Digest) (core.Result, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return core.Result{}, "", false
	}
	e, ok := s.results[d]
	if !ok {
		s.counters.Counter(ctrMiss).Inc()
		return core.Result{}, "", false
	}
	rec, err := s.readRecord(e)
	if err != nil || rec.Result == nil {
		// The bytes under a live index entry failed to read back —
		// treat as a miss; the caller re-executes and overwrites.
		s.drop(e)
		s.counters.Counter(ctrMiss).Inc()
		return core.Result{}, "", false
	}
	s.touch(e)
	s.counters.Counter(ctrHit).Inc()
	return *rec.Result, e.id, true
}

// PutResult appends one run result under its digest and returns the run
// id it was stored as. Storing an already-present digest refreshes its
// LRU position and returns the existing id without writing.
func (s *Store) PutResult(d Digest, key string, res core.Result) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(); err != nil {
		return "", err
	}
	if e, ok := s.results[d]; ok {
		s.touch(e)
		return e.id, nil
	}
	id := "r" + strconv.FormatInt(s.nextSeq, 10)
	rec := &diskRecord{
		Kind:   kindResult,
		ID:     id,
		Digest: d.String(),
		Key:    key,
		Stored: time.Now().UnixMilli(),
		Result: &res,
	}
	if err := s.append(rec); err != nil {
		return "", err
	}
	s.counters.Counter(ctrPut).Inc()
	return id, nil
}

// PutTrace appends one rendered Chrome trace under the serving layer's
// trace id, superseding any previous record with the same id.
func (s *Store) PutTrace(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(); err != nil {
		return err
	}
	rec := &diskRecord{
		Kind:   kindTrace,
		ID:     id,
		Stored: time.Now().UnixMilli(),
		Trace:  data,
	}
	if err := s.append(rec); err != nil {
		return err
	}
	s.counters.Counter(ctrPutTrace).Inc()
	return nil
}

// GetTrace reads a retained trace back.
func (s *Store) GetTrace(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[id]
	if !ok || s.closed {
		return nil, false
	}
	rec, err := s.readRecord(e)
	if err != nil || rec.Trace == nil {
		s.drop(e)
		return nil, false
	}
	s.touch(e)
	return rec.Trace, true
}

// MaxTraceSeq returns the highest numeric suffix among retained trace
// ids of the form "<prefix>t<N>"; 0 when none. The serving layer seeds
// its trace-id counter from this after a restart so new traces never
// collide with persisted ones.
func (s *Store) MaxTraceSeq(prefix string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for id := range s.traces {
		rest, ok := strings.CutPrefix(id, prefix+"t")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// RunByID returns the stored run with the given id.
func (s *Store) RunByID(id string) (RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok || s.closed {
		return RunRecord{}, false
	}
	rec, err := s.readRecord(e)
	if err != nil || rec.Result == nil {
		s.drop(e)
		return RunRecord{}, false
	}
	s.touch(e)
	return RunRecord{ID: e.id, Key: e.key, Digest: rec.Digest, StoredMS: rec.Stored, Result: *rec.Result}, true
}

// Runs lists stored runs — for one patternlet key, or all of them when
// key is empty — ordered by run id. Only metadata is materialized; use
// RunByID for the full record including Output.
func (s *Store) Runs(key string) []RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var list []*entry
	for _, e := range s.byID {
		if key == "" || e.key == key {
			list = append(list, e)
		}
	}
	sort.Slice(list, func(i, j int) bool { return runSeq(list[i].id) < runSeq(list[j].id) })
	out := make([]RunRecord, 0, len(list))
	for _, e := range list {
		out = append(out, RunRecord{ID: e.id, Key: e.key, Digest: e.digest.String(), StoredMS: e.stored})
	}
	return out
}

// admit waits until the pending buffer has room and reports why a put
// cannot go ahead: the store is closed, or a write failed since the
// last put (each failure is returned once). Caller holds mu.
func (s *Store) admit() error {
	for len(s.pending) >= pendingLimit && !s.closed {
		s.idle.Wait()
	}
	if s.closed {
		return errClosed
	}
	err := s.putErr
	s.putErr = nil
	return err
}

// append frames and checksums one record into the pending buffer and
// indexes it, evicting as the byte budget requires; the writer writes
// it. Caller holds mu.
func (s *Store) append(rec *diskRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	size := int64(8 + len(payload))
	if size > s.maxBytes {
		s.counters.Counter(ctrOversize).Inc()
		return ErrOversize
	}
	s.evictUntil(s.maxBytes - size)
	s.pending = binary.BigEndian.AppendUint32(s.pending, uint32(len(payload)))
	s.pending = binary.BigEndian.AppendUint32(s.pending, crc32.Checksum(payload, crcTable))
	s.pending = append(s.pending, payload...)
	s.index(rec, s.size, size)
	s.size += size
	s.work.Signal()
	return nil
}

// evictUntil drops least-recently-used live records until live bytes
// fit the target.
func (s *Store) evictUntil(target int64) {
	for s.live > target && s.lru.next != &s.lru {
		s.drop(s.lru.next)
		s.counters.Counter(ctrEvicted).Inc()
	}
}

// writer is the log's only writer. Once dead bytes pass the budget it
// compacts, which also writes what is pending; otherwise it writes
// whatever is pending as one batch. After Close it writes what is still
// pending and exits.
func (s *Store) writer() {
	defer close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.compactDue() && !s.closed:
			s.compact()
		case len(s.pending) > 0:
			s.writeBatch()
		case s.closed:
			return
		default:
			s.work.Wait()
			continue
		}
		s.idle.Broadcast()
	}
}

// compactDue reports whether dead bytes exceed the budget. Caller holds
// mu.
func (s *Store) compactDue() bool {
	return !s.compactFailed && s.size-s.live > s.maxBytes
}

// writeBatch writes the pending records at the end of the log with mu
// released. A failed write truncates the log back to where the batch
// began and drops the batch's records from the index, so no entry
// points at bytes the file does not hold. Caller (the writer) holds mu.
func (s *Store) writeBatch() {
	batch, off, f, write := s.pending, s.disk, s.f, s.writeAt
	s.inflight, s.pending, s.spare = batch, s.spare, nil
	s.busy = true
	s.mu.Unlock()
	err := write(f, batch, off)
	if err != nil {
		if terr := f.Truncate(off); terr != nil {
			err = errors.Join(err, terr)
		}
	}
	s.mu.Lock()
	s.busy = false
	s.inflight = nil
	if err != nil {
		s.dropBatch(off, int64(len(batch)))
		s.fail(fmt.Errorf("store: append: %w", err))
	} else {
		s.disk += int64(len(batch))
		s.compactFailed = false
	}
	if cap(batch) <= spareCap {
		s.spare = batch[:0]
	}
}

// dropBatch forgets the n bytes of a failed batch written at off: its
// records leave the index, and records framed after it move down by n.
// Caller holds mu.
func (s *Store) dropBatch(off, n int64) {
	for e := s.lru.next; e != &s.lru; {
		next := e.next
		switch {
		case e.off >= off+n:
			e.off -= n
		case e.off >= off:
			s.drop(e)
		}
		e = next
	}
	s.size -= n
}

// fail counts a failed write or compaction and keeps err for the next
// put and, if it is the first, for Close. Caller holds mu.
func (s *Store) fail(err error) {
	s.counters.Counter(ctrWriteErr).Inc()
	s.putErr = err
	if s.writeErr == nil {
		s.writeErr = err
	}
}

// span is one live record's bytes in the log a compaction copies.
type span struct {
	e         *entry
	off, size int64
}

// compact rewrites every live record, from the log or from the
// pending batch, into a fresh log in recency order, so a reopen restores
// the LRU order, and swaps it in, dropping dead bytes. It takes the
// pending batch as its in-flight batch, so those records are written
// once, into the new log. mu is held only to snapshot the records and to
// swap: the copy, the fsync and the rename run without it while puts go
// on framing into a new pending buffer, whose records then move by the
// change in size. A crash mid-compaction leaves the original log
// untouched (the rename is the commit point). Caller (the writer) holds
// mu.
func (s *Store) compact() {
	var spans []span
	for e := s.lru.next; e != &s.lru; e = e.next {
		spans = append(spans, span{e, e.off, e.size})
	}
	old, disk, end, batch := s.f, s.disk, s.size, s.pending
	s.inflight, s.pending, s.spare = batch, s.spare, nil
	s.busy = true
	s.mu.Unlock()
	f, n, err := s.rewrite(old, disk, batch, spans)
	s.mu.Lock()
	s.busy = false
	s.inflight = nil
	if err != nil {
		// The batch is still to be written, ahead of what was framed
		// since; offsets have not moved.
		s.pending = append(batch, s.pending...)
		s.compactFailed = true
		s.fail(err)
		return
	}
	delta := n - end
	for e := s.lru.next; e != &s.lru; e = e.next {
		if e.off >= end { // framed during the copy
			e.off += delta
		}
	}
	var off int64
	for _, sp := range spans {
		if sp.e.next != nil { // still live
			sp.e.off = off
		}
		off += sp.size
	}
	s.f, s.disk, s.size = f, n, s.size+delta
	old.Close() // only read since the copy; its records live on in f
	if cap(batch) <= spareCap {
		s.spare = batch[:0]
	}
	s.counters.Counter(ctrCompact).Inc()
}

// rewrite copies spans, in order, into a new file — from old below
// offset disk, from batch (which starts at disk) above it — syncs it and
// renames it over the log. It returns the new log, open for writing,
// and its size. It runs without mu: only the writer writes old, and
// batch is in flight.
func (s *Store) rewrite(old *os.File, disk int64, batch []byte, spans []span) (*os.File, int64, error) {
	tmpPath := filepath.Join(s.dir, logName+".compact")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return nil, 0, fmt.Errorf("store: compact: %w", err)
	}
	fail := func(step string, err error) (*os.File, int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, 0, fmt.Errorf("store: compact %s: %w", step, err)
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	var buf []byte
	var n int64
	for _, sp := range spans {
		var rec []byte
		if rel := sp.off - disk; rel >= 0 {
			rec = batch[rel : rel+sp.size]
		} else {
			buf = slices.Grow(buf[:0], int(sp.size))[:sp.size]
			if _, err := old.ReadAt(buf, sp.off); err != nil {
				return fail("read", err)
			}
			rec = buf
		}
		if _, err := w.Write(rec); err != nil {
			return fail("write", err)
		}
		n += sp.size
	}
	if err := w.Flush(); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		return fail("rename", err)
	}
	return tmp, n, nil
}

// flush waits until the writer has written every pending record and
// run any compaction due. Caller holds mu.
func (s *Store) flush() {
	s.work.Signal() // a read that dropped an unreadable entry made dead bytes unannounced
	for !s.closed && (s.busy || len(s.pending) > 0 || s.compactDue()) {
		s.idle.Wait()
	}
}

// Len reports how many run results are currently live.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// DiskSize reports the log's byte size (live + not-yet-compacted dead
// bytes) once the writer has caught up: it waits for every pending
// record to reach the file and for any compaction due.
func (s *Store) DiskSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	return s.size
}

// Counters snapshots the store's telemetry counters.
func (s *Store) Counters() map[string]int64 {
	return s.counters.Snapshot()
}

// Close waits for the writer to write every pending record, then
// releases the log file; further calls answer misses and errors. It
// returns the first write failure the store saw, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.work.Signal()
	s.idle.Broadcast()
	s.mu.Unlock()
	<-s.done
	return errors.Join(s.writeErr, s.f.Close())
}

// readRecord reads and decodes one record's payload: from the log, or
// from the in-flight or pending batch while the writer has not written
// it yet. Caller holds mu.
func (s *Store) readRecord(e *entry) (*diskRecord, error) {
	var buf []byte
	switch rel := e.off - s.disk; {
	case rel < 0:
		buf = make([]byte, e.size)
		if _, err := s.f.ReadAt(buf, e.off); err != nil {
			return nil, err
		}
	case rel < int64(len(s.inflight)):
		buf = s.inflight[rel : rel+e.size]
	default:
		rel -= int64(len(s.inflight))
		buf = s.pending[rel : rel+e.size]
	}
	payload := buf[8:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, errors.New("store: record checksum mismatch")
	}
	var rec diskRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}
