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
// Capacity is bounded by WithMaxBytes: admission of a new record first
// evicts least-recently-used live records until it fits, and the log is
// compacted (live records rewritten, dead bytes dropped) once dead bytes
// exceed the budget, so disk usage stays under 2× the configured cap at
// all times.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
)

// logName is the single log file inside the store directory.
const logName = "runs.log"

// maxRecordLen bounds one record; a length header above it is treated
// as corruption, not as an instruction to allocate gigabytes.
const maxRecordLen = 64 << 20

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
// concurrent use; one mutex serializes index and log access (records
// are small and reads are single ReadAt calls, so the lock is never
// held across anything slow).
type Store struct {
	dir      string
	maxBytes int64
	counters telemetry.CounterSet

	mu      sync.Mutex
	f       *os.File
	size    int64 // current append offset (file size)
	live    int64 // bytes belonging to live records
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
// records. Log order becomes the initial recency order.
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
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	// A budget smaller than the surviving records (maxBytes lowered
	// between runs) is enforced immediately.
	s.evictUntil(s.maxBytes)
	return s, nil
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
	s.size = off
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
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
	if s.closed {
		return "", errors.New("store: closed")
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
	if s.closed {
		return errors.New("store: closed")
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

// append frames, checksums, and writes one record, evicting and
// compacting as the byte budget requires. Caller holds mu.
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
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	off := s.size
	s.size += size
	s.index(rec, off, size)
	if s.size-s.live > s.maxBytes {
		return s.compact()
	}
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

// compact rewrites the live records into a fresh log, in recency order
// so a reopen restores the LRU order, and atomically swaps it in,
// dropping dead bytes. A crash mid-compaction leaves the original log
// untouched (the rename is the commit point), and entry offsets move to
// the new log only once it is in place.
func (s *Store) compact() error {
	tmpPath := filepath.Join(s.dir, logName+".compact")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	var off int64
	for e := s.lru.next; e != &s.lru; e = e.next {
		buf := make([]byte, e.size)
		if _, err := s.f.ReadAt(buf, e.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact read: %w", err)
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact write: %w", err)
		}
		off += e.size
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	old := s.f
	f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: compact seek: %w", err)
	}
	old.Close()
	s.f = f
	s.size = off
	s.live = off
	off = 0
	for e := s.lru.next; e != &s.lru; e = e.next {
		e.off = off
		off += e.size
	}
	s.counters.Counter(ctrCompact).Inc()
	return nil
}

// Len reports how many run results are currently live.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// DiskSize reports the log's current byte size (live + not-yet-compacted
// dead bytes).
func (s *Store) DiskSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Counters snapshots the store's telemetry counters.
func (s *Store) Counters() map[string]int64 {
	return s.counters.Snapshot()
}

// Close releases the log file; further calls answer misses and errors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// readRecord reads and decodes one record's payload. Caller holds mu.
func (s *Store) readRecord(e *entry) (*diskRecord, error) {
	buf := make([]byte, e.size)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, err
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
