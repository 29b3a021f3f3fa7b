package mpi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/wirecodec"
)

func f64bits(f float64) uint64 { return math.Float64bits(f) }
func f64from(u uint64) float64 { return math.Float64frombits(u) }
func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f32from(u uint32) float32 { return math.Float32frombits(u) }

// Typed wire codec: the fast path that replaced gob on the hot wire.
//
// Every payload starts with one tag byte naming its shape. Tag 0 means
// "gob stream follows" — the fallback that keeps arbitrary user types
// working and doubles as the equivalence oracle in tests. All other tags
// are the compact fast paths for the shapes the patternlet catalog
// actually sends: scalars as zigzag/unsigned varints, floats as
// fixed-width little-endian words, strings and byte slices
// length-prefixed, numeric slices as a count plus fixed-width elements
// (bulk copies beat per-element varints on both ends), and the handful
// of nested shapes the tree collectives bundle ([][]T, []splitEntry).
// New tags are only ever appended, so existing tag values never move.
//
// A gob round trip costs two allocations, a reflection walk and ~300 ns
// even for a single int; the fast path writes ~3 bytes into a pooled
// buffer and reads them back with no allocation at all. Decoded values
// never alias the payload buffer (strings and byte slices are copied
// out), so receivers can recycle payload buffers immediately after
// decoding — see the ownership convention in cluster.Message.
const (
	tagGob byte = iota // gob fallback: rest of payload is a gob stream
	tagEmpty
	tagBool
	tagInt
	tagInt32
	tagInt64
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagIntSlice
	tagInt64Slice
	tagFloat64Slice
	tagFloat32Slice
	tagStringSlice
	tagSplitEntry
	tagSplitEntrySlice
	tagIntSS     // [][]int
	tagFloat64SS // [][]float64
	tagBytesSS   // [][]byte
	tagStringSS  // [][]string
	tagSplitEntrySS
	tagInt32Slice  // []int32: the align pipeline's ghost rows
	tagUint64Slice // []uint64: the align pipeline's row-hash gather
)

// maxVarint is the widest encoding of one varint scalar.
const maxVarint = 10

// Codec counter names, as folded into telemetry under the "mpi." prefix.
const (
	ctrFastEncode = "codec.fast_encode"
	ctrGobEncode  = "codec.gob_encode"
	ctrFastDecode = "codec.fast_decode"
	ctrGobDecode  = "codec.gob_decode"
)

// codecStats counts fast-path vs gob-fallback codec operations
// process-wide. Worlds snapshot it at start and fold the delta into the
// active telemetry collector when they finish.
var codecStats struct {
	set  telemetry.CounterSet
	once sync.Once

	fastEnc, gobEnc *telemetry.Counter
	fastDec, gobDec *telemetry.Counter
}

// The counters are resolved once at package init so the hot encode/decode
// paths do a plain atomic increment with no once-check.
func init() { codecCounters() }

func codecCounters() *telemetry.CounterSet {
	codecStats.once.Do(func() {
		codecStats.fastEnc = codecStats.set.Counter(ctrFastEncode)
		codecStats.gobEnc = codecStats.set.Counter(ctrGobEncode)
		codecStats.fastDec = codecStats.set.Counter(ctrFastDecode)
		codecStats.gobDec = codecStats.set.Counter(ctrGobDecode)
	})
	return &codecStats.set
}

// codecSnapshot returns the current codec counter values.
func codecSnapshot() map[string]int64 {
	return codecCounters().Snapshot()
}

// foldCodecDelta adds the codec activity since base to col under "mpi."
// names — the world-end hook that surfaces fast-path vs fallback hit
// rates next to the traffic counters.
func foldCodecDelta(col *telemetry.Collector, base map[string]int64) {
	for name, v := range codecSnapshot() {
		if d := v - base[name]; d != 0 {
			col.Counter("mpi." + name).Add(d)
		}
	}
}

// ---------------------------------------------------------------------------
// Encoding

// encodeFast serializes *p into a pooled buffer when its type has a fast
// path, reporting ok=false for types that must fall back to gob. p is
// always a pointer to the value (taking the address of a type-switch
// operand would force it to the heap; a pointer parameter that does not
// escape keeps the caller's value on its stack).
func encodeFast(p any) ([]byte, bool) {
	switch v := p.(type) {
	case *struct{}:
		b := wirecodec.Get(1)
		return append(b, tagEmpty), true
	case *bool:
		b := wirecodec.Get(2)
		b = append(b, tagBool)
		if *v {
			return append(b, 1), true
		}
		return append(b, 0), true
	case *int:
		return encodeVarintScalar(tagInt, int64(*v)), true
	case *int32:
		return encodeVarintScalar(tagInt32, int64(*v)), true
	case *int64:
		return encodeVarintScalar(tagInt64, *v), true
	case *uint32:
		return encodeUvarintScalar(tagUint32, uint64(*v)), true
	case *uint64:
		return encodeUvarintScalar(tagUint64, *v), true
	case *float32:
		b := wirecodec.Get(5)
		b = append(b, tagFloat32)
		return wirecodec.AppendUint32(b, f32bits(*v)), true
	case *float64:
		b := wirecodec.Get(9)
		b = append(b, tagFloat64)
		return wirecodec.AppendUint64(b, f64bits(*v)), true
	case *string:
		b := wirecodec.Get(1 + maxVarint + len(*v))
		b = append(b, tagString)
		return wirecodec.AppendString(b, *v), true
	case *[]byte:
		b := wirecodec.Get(1 + maxVarint + len(*v))
		b = append(b, tagBytes)
		return wirecodec.AppendBytes(b, *v), true
	case *[]int:
		b := wirecodec.Get(1 + maxVarint + 8*len(*v))
		b = append(b, tagIntSlice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint64(b, uint64(e))
		}
		return b, true
	case *[]int64:
		b := wirecodec.Get(1 + maxVarint + 8*len(*v))
		b = append(b, tagInt64Slice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint64(b, uint64(e))
		}
		return b, true
	case *[]float64:
		b := wirecodec.Get(1 + maxVarint + 8*len(*v))
		b = append(b, tagFloat64Slice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint64(b, f64bits(e))
		}
		return b, true
	case *[]float32:
		b := wirecodec.Get(1 + maxVarint + 4*len(*v))
		b = append(b, tagFloat32Slice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint32(b, f32bits(e))
		}
		return b, true
	case *[]int32:
		b := wirecodec.Get(1 + maxVarint + 4*len(*v))
		b = append(b, tagInt32Slice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint32(b, uint32(e))
		}
		return b, true
	case *[]uint64:
		b := wirecodec.Get(1 + maxVarint + 8*len(*v))
		b = append(b, tagUint64Slice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = wirecodec.AppendUint64(b, e)
		}
		return b, true
	case *[]string:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint + len(s)
		}
		b := wirecodec.Get(n)
		b = append(b, tagStringSlice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendString(b, s)
		}
		return b, true
	case *splitEntry:
		b := wirecodec.Get(1 + 3*maxVarint)
		b = append(b, tagSplitEntry)
		return appendSplitEntry(b, *v), true
	case *[]splitEntry:
		b := wirecodec.Get(1 + maxVarint + 3*maxVarint*len(*v))
		b = append(b, tagSplitEntrySlice)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, e := range *v {
			b = appendSplitEntry(b, e)
		}
		return b, true
	case *[][]int:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint + 8*len(s)
		}
		b := wirecodec.Get(n)
		b = append(b, tagIntSS)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendUvarint(b, uint64(len(s)))
			for _, e := range s {
				b = wirecodec.AppendUint64(b, uint64(e))
			}
		}
		return b, true
	case *[][]float64:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint + 8*len(s)
		}
		b := wirecodec.Get(n)
		b = append(b, tagFloat64SS)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendUvarint(b, uint64(len(s)))
			for _, e := range s {
				b = wirecodec.AppendUint64(b, f64bits(e))
			}
		}
		return b, true
	case *[][]byte:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint + len(s)
		}
		b := wirecodec.Get(n)
		b = append(b, tagBytesSS)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendBytes(b, s)
		}
		return b, true
	case *[][]string:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint
			for _, e := range s {
				n += maxVarint + len(e)
			}
		}
		b := wirecodec.Get(n)
		b = append(b, tagStringSS)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendUvarint(b, uint64(len(s)))
			for _, e := range s {
				b = wirecodec.AppendString(b, e)
			}
		}
		return b, true
	case *[][]splitEntry:
		n := 1 + maxVarint
		for _, s := range *v {
			n += maxVarint + 3*maxVarint*len(s)
		}
		b := wirecodec.Get(n)
		b = append(b, tagSplitEntrySS)
		b = wirecodec.AppendUvarint(b, uint64(len(*v)))
		for _, s := range *v {
			b = wirecodec.AppendUvarint(b, uint64(len(s)))
			for _, e := range s {
				b = appendSplitEntry(b, e)
			}
		}
		return b, true
	}
	return nil, false
}

func encodeVarintScalar(tag byte, v int64) []byte {
	b := wirecodec.Get(1 + maxVarint)
	b = append(b, tag)
	return wirecodec.AppendVarint(b, v)
}

func encodeUvarintScalar(tag byte, v uint64) []byte {
	b := wirecodec.Get(1 + maxVarint)
	b = append(b, tag)
	return wirecodec.AppendUvarint(b, v)
}

func appendSplitEntry(b []byte, e splitEntry) []byte {
	b = wirecodec.AppendVarint(b, int64(e.Color))
	b = wirecodec.AppendVarint(b, int64(e.Key))
	return wirecodec.AppendVarint(b, int64(e.Rank))
}

// ---------------------------------------------------------------------------
// Decoding

var errTruncated = fmt.Errorf("mpi: decode: truncated payload")

// wireMismatch reports a tag that cannot decode into *P. The target
// pointer parameter is deliberately unused: formatting a typed nil instead
// of the caller's live pointer keeps the decode target off the heap — an
// interface-boxed live pointer would mark the decode path as leaking and
// cost an allocation per receive even when no error occurs.
func wireMismatch[P any](tag byte, _ *P) error {
	return fmt.Errorf("mpi: decode: wire tag %d does not fit target %T", tag, (*P)(nil))
}

// decodeFast rebuilds *p from a typed payload (b includes the leading tag
// byte, which is never tagGob here). It reports ok=false when *p's type
// has no fast path — impossible for payloads our own encoder produced,
// since a shape is either fast-path on both ends or gob on both, but kept
// as a graceful signal for mixed-version frames. Numeric scalar tags
// decode leniently across widths within the same family (an int sent as
// int32 lands in an int64 target, as gob allowed); everything else
// requires the matching shape.
func decodeFast(p any, b []byte) (bool, error) {
	tag := b[0]
	body := b[1:]
	switch v := p.(type) {
	case *struct{}:
		if tag != tagEmpty {
			return true, wireMismatch(tag, v)
		}
		return true, nil
	case *bool:
		if tag != tagBool || len(body) < 1 {
			return true, wireMismatch(tag, v)
		}
		*v = body[0] != 0
		return true, nil
	case *int:
		n, err := decodeSigned(tag, body, v)
		*v = int(n)
		return true, err
	case *int32:
		n, err := decodeSigned(tag, body, v)
		*v = int32(n)
		return true, err
	case *int64:
		n, err := decodeSigned(tag, body, v)
		*v = n
		return true, err
	case *uint32:
		n, err := decodeUnsigned(tag, body, v)
		*v = uint32(n)
		return true, err
	case *uint64:
		n, err := decodeUnsigned(tag, body, v)
		*v = n
		return true, err
	case *float32:
		f, err := decodeFloat(tag, body, v)
		*v = float32(f)
		return true, err
	case *float64:
		f, err := decodeFloat(tag, body, v)
		*v = f
		return true, err
	case *string:
		if tag != tagString {
			return true, wireMismatch(tag, v)
		}
		s, _, ok := wirecodec.Bytes(body)
		if !ok {
			return true, errTruncated
		}
		*v = string(s) // copy: the payload buffer is recycled after decode
		return true, nil
	case *[]byte:
		if tag != tagBytes {
			return true, wireMismatch(tag, v)
		}
		s, _, ok := wirecodec.Bytes(body)
		if !ok {
			return true, errTruncated
		}
		if len(s) > 0 {
			out := make([]byte, len(s))
			copy(out, s)
			*v = out
		}
		return true, nil
	case *[]int:
		if tag != tagIntSlice && tag != tagInt64Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 8)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]int, n)
			for i := range out {
				out[i] = int(int64(leU64(body, i)))
			}
			*v = out
		}
		return true, nil
	case *[]int64:
		if tag != tagIntSlice && tag != tagInt64Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 8)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(leU64(body, i))
			}
			*v = out
		}
		return true, nil
	case *[]float64:
		if tag != tagFloat64Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 8)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]float64, n)
			for i := range out {
				out[i] = f64from(leU64(body, i))
			}
			*v = out
		}
		return true, nil
	case *[]float32:
		if tag != tagFloat32Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 4)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]float32, n)
			for i := range out {
				out[i] = f32from(leU32(body, i))
			}
			*v = out
		}
		return true, nil
	case *[]int32:
		if tag != tagInt32Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 4)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(leU32(body, i))
			}
			*v = out
		}
		return true, nil
	case *[]uint64:
		if tag != tagUint64Slice {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 8)
		if !ok {
			return true, errTruncated
		}
		if n > 0 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = leU64(body, i)
			}
			*v = out
		}
		return true, nil
	case *[]string:
		if tag != tagStringSlice {
			return true, wireMismatch(tag, v)
		}
		out, _, err := decodeStringSlice(body)
		if err != nil {
			return true, err
		}
		*v = out
		return true, nil
	case *splitEntry:
		if tag != tagSplitEntry {
			return true, wireMismatch(tag, v)
		}
		e, _, ok := decodeSplitEntry(body)
		if !ok {
			return true, errTruncated
		}
		*v = e
		return true, nil
	case *[]splitEntry:
		if tag != tagSplitEntrySlice {
			return true, wireMismatch(tag, v)
		}
		out, _, err := decodeSplitEntrySlice(body)
		if err != nil {
			return true, err
		}
		*v = out
		return true, nil
	case *[][]int:
		if tag != tagIntSS {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 1)
		if !ok {
			return true, errTruncated
		}
		if n == 0 {
			return true, nil
		}
		out := make([][]int, n)
		for i := range out {
			var m uint64
			m, body, ok = sliceHeader(body, 8)
			if !ok {
				return true, errTruncated
			}
			if m > 0 {
				sub := make([]int, m)
				for j := range sub {
					sub[j] = int(int64(leU64(body, j)))
				}
				out[i] = sub
				body = body[8*m:]
			}
		}
		*v = out
		return true, nil
	case *[][]float64:
		if tag != tagFloat64SS {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 1)
		if !ok {
			return true, errTruncated
		}
		if n == 0 {
			return true, nil
		}
		out := make([][]float64, n)
		for i := range out {
			var m uint64
			m, body, ok = sliceHeader(body, 8)
			if !ok {
				return true, errTruncated
			}
			if m > 0 {
				sub := make([]float64, m)
				for j := range sub {
					sub[j] = f64from(leU64(body, j))
				}
				out[i] = sub
				body = body[8*m:]
			}
		}
		*v = out
		return true, nil
	case *[][]byte:
		if tag != tagBytesSS {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 1)
		if !ok {
			return true, errTruncated
		}
		if n == 0 {
			return true, nil
		}
		out := make([][]byte, n)
		for i := range out {
			var s []byte
			s, body, ok = wirecodec.Bytes(body)
			if !ok {
				return true, errTruncated
			}
			if len(s) > 0 {
				sub := make([]byte, len(s))
				copy(sub, s)
				out[i] = sub
			}
		}
		*v = out
		return true, nil
	case *[][]string:
		if tag != tagStringSS {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 1)
		if !ok {
			return true, errTruncated
		}
		if n == 0 {
			return true, nil
		}
		out := make([][]string, n)
		for i := range out {
			var sub []string
			var err error
			sub, body, err = decodeStringSlice(body)
			if err != nil {
				return true, err
			}
			out[i] = sub
		}
		*v = out
		return true, nil
	case *[][]splitEntry:
		if tag != tagSplitEntrySS {
			return true, wireMismatch(tag, v)
		}
		n, body, ok := sliceHeader(body, 1)
		if !ok {
			return true, errTruncated
		}
		if n == 0 {
			return true, nil
		}
		out := make([][]splitEntry, n)
		for i := range out {
			var sub []splitEntry
			var err error
			sub, body, err = decodeSplitEntrySlice(body)
			if err != nil {
				return true, err
			}
			out[i] = sub
		}
		*v = out
		return true, nil
	}
	return false, nil
}

func decodeSigned[P any](tag byte, body []byte, tgt *P) (int64, error) {
	switch tag {
	case tagInt, tagInt32, tagInt64:
		v, _, ok := wirecodec.Varint(body)
		if !ok {
			return 0, errTruncated
		}
		return v, nil
	}
	return 0, wireMismatch(tag, tgt)
}

func decodeUnsigned[P any](tag byte, body []byte, tgt *P) (uint64, error) {
	switch tag {
	case tagUint32, tagUint64:
		v, _, ok := wirecodec.Uvarint(body)
		if !ok {
			return 0, errTruncated
		}
		return v, nil
	}
	return 0, wireMismatch(tag, tgt)
}

func decodeFloat[P any](tag byte, body []byte, tgt *P) (float64, error) {
	switch tag {
	case tagFloat64:
		v, _, ok := wirecodec.Uint64(body)
		if !ok {
			return 0, errTruncated
		}
		return f64from(v), nil
	case tagFloat32:
		v, _, ok := wirecodec.Uint32(body)
		if !ok {
			return 0, errTruncated
		}
		return float64(f32from(v)), nil
	}
	return 0, wireMismatch(tag, tgt)
}

// sliceHeader consumes a count and verifies the body holds count*width
// bytes; the returned rest points at the first element. The bound divides
// rather than multiplies: count*width wraps for a hostile count, and a
// wrapped product would let make() see the raw count and panic.
// Variable-width slices ([]string, []splitEntry, [][]T) pass width 1:
// every element takes at least one byte on the wire.
func sliceHeader(b []byte, width uint64) (uint64, []byte, bool) {
	n, rest, ok := wirecodec.Uvarint(b)
	if !ok || n > uint64(len(rest))/width {
		return 0, nil, false
	}
	return n, rest, true
}

func decodeStringSlice(b []byte) ([]string, []byte, error) {
	n, b, ok := sliceHeader(b, 1)
	if !ok {
		return nil, nil, errTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]string, n)
	for i := range out {
		var s []byte
		s, b, ok = wirecodec.Bytes(b)
		if !ok {
			return nil, nil, errTruncated
		}
		out[i] = string(s)
	}
	return out, b, nil
}

func decodeSplitEntry(b []byte) (splitEntry, []byte, bool) {
	var e splitEntry
	c, b, ok := wirecodec.Varint(b)
	if !ok {
		return e, nil, false
	}
	k, b, ok := wirecodec.Varint(b)
	if !ok {
		return e, nil, false
	}
	r, b, ok := wirecodec.Varint(b)
	if !ok {
		return e, nil, false
	}
	e = splitEntry{Color: int(c), Key: int(k), Rank: int(r)}
	return e, b, true
}

func decodeSplitEntrySlice(b []byte) ([]splitEntry, []byte, error) {
	n, b, ok := sliceHeader(b, 1)
	if !ok {
		return nil, nil, errTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]splitEntry, n)
	for i := range out {
		out[i], b, ok = decodeSplitEntry(b)
		if !ok {
			return nil, nil, errTruncated
		}
	}
	return out, b, nil
}

func leU64(b []byte, i int) uint64 {
	_ = b[8*i+7]
	return uint64(b[8*i]) | uint64(b[8*i+1])<<8 | uint64(b[8*i+2])<<16 | uint64(b[8*i+3])<<24 |
		uint64(b[8*i+4])<<32 | uint64(b[8*i+5])<<40 | uint64(b[8*i+6])<<48 | uint64(b[8*i+7])<<56
}

func leU32(b []byte, i int) uint32 {
	_ = b[4*i+3]
	return uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
}
