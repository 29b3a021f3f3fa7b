package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wirecodec"
)

// sameOnWire reports value equality up to wire canonicalization: the
// codec does not distinguish nil from empty slices (a zero count decodes
// as nil at any nesting depth), and neither does gob — so two values are
// wire-equal when they are deeply equal or their gob encodings match.
func sameOnWire(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	enc := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil
		}
		return buf.Bytes()
	}
	ea, eb := enc(a), enc(b)
	return ea != nil && bytes.Equal(ea, eb)
}

// checkRoundTrip pins the fast codec against the gob oracle for one value:
// the fast encoding must decode back to the original, and must agree with
// what a gob round trip of the same value produces.
func checkRoundTrip[T any](t *testing.T, v T) {
	t.Helper()
	fast, err := encodeMode(v, false)
	if err != nil {
		t.Fatalf("fast encode %T: %v", v, err)
	}
	if len(fast) == 0 || fast[0] == tagGob {
		t.Fatalf("%T (%v) did not take the fast path (tag %d)", v, v, fast[0])
	}
	got, err := decode[T](fast)
	if err != nil {
		t.Fatalf("fast decode %T: %v", v, err)
	}
	if !sameOnWire(got, v) {
		t.Fatalf("fast round trip %T: got %#v, want %#v", v, got, v)
	}

	oracle, err := encodeMode(v, true)
	if err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	if oracle[0] != tagGob {
		t.Fatalf("gob-only encode of %T not tagged as gob", v)
	}
	fromGob, err := decode[T](oracle)
	if err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	if !sameOnWire(got, fromGob) {
		t.Fatalf("%T: fast decode %#v != gob oracle decode %#v", v, got, fromGob)
	}
}

func TestWireCodecRoundTripAllShapes(t *testing.T) {
	checkRoundTrip(t, struct{}{})
	checkRoundTrip(t, true)
	checkRoundTrip(t, false)
	checkRoundTrip(t, 0)
	checkRoundTrip(t, -1)
	checkRoundTrip(t, math.MaxInt)
	checkRoundTrip(t, math.MinInt)
	checkRoundTrip(t, int32(-77))
	checkRoundTrip(t, int64(math.MinInt64))
	checkRoundTrip(t, uint32(math.MaxUint32))
	checkRoundTrip(t, uint64(math.MaxUint64))
	checkRoundTrip(t, float32(3.5))
	checkRoundTrip(t, 2.718281828459045)
	checkRoundTrip(t, math.Inf(-1))
	checkRoundTrip(t, "")
	checkRoundTrip(t, "patternlet δ")
	checkRoundTrip(t, []byte{0, 1, 2, 255})
	checkRoundTrip(t, []int{1, -2, 3})
	checkRoundTrip(t, []int64{math.MinInt64, 0, math.MaxInt64})
	checkRoundTrip(t, []float64{0, -1.5, math.MaxFloat64})
	checkRoundTrip(t, []float32{1, 2, 3})
	checkRoundTrip(t, []int32{math.MinInt32, -1, 0, math.MaxInt32})
	checkRoundTrip(t, []int32{})
	checkRoundTrip(t, []uint64{0, 1, math.MaxUint64})
	checkRoundTrip(t, []uint64{})
	checkRoundTrip(t, []string{"a", "", "c"})
	checkRoundTrip(t, splitEntry{Color: 1, Key: -2, Rank: 3})
	checkRoundTrip(t, []splitEntry{{0, 1, 2}, {-1, -2, -3}})
	checkRoundTrip(t, [][]int{{1, 2}, nil, {3}})
	checkRoundTrip(t, [][]float64{{1.5}, {2.5, 3.5}})
	checkRoundTrip(t, [][]byte{[]byte("ab"), nil, []byte("c")})
	checkRoundTrip(t, [][]string{{"x"}, {"y", "z"}})
	checkRoundTrip(t, [][]splitEntry{{{1, 2, 3}}, {{4, 5, 6}, {7, 8, 9}}})
}

func TestWireCodecScalarFamilies(t *testing.T) {
	// The decoder is lenient across same-family widths (an int encoded on
	// one side may be received as int64 on the other, as gob allows).
	b, err := encodeMode(42, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := decode[int64](b); err != nil || v != 42 {
		t.Fatalf("int→int64: %d, %v", v, err)
	}
	b, err = encodeMode(float32(1.5), false)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := decode[float64](b); err != nil || v != 1.5 {
		t.Fatalf("float32→float64: %v, %v", v, err)
	}
}

func TestWireCodecDecodeDoesNotAlias(t *testing.T) {
	// The no-alias contract is what lets the receive path recycle payload
	// buffers immediately after decoding: corrupting the wire bytes after
	// decode must not corrupt the decoded value.
	src := []byte("precious bytes")
	b, err := encodeMode(src, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode[[]byte](b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xAA
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("decoded []byte aliases the wire buffer: %q", got)
	}

	b2, err := encodeMode("precious string", false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := decode[string](b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b2 {
		b2[i] = 0xAA
	}
	if s != "precious string" {
		t.Fatalf("decoded string aliases the wire buffer: %q", s)
	}
}

func TestWireCodecTruncatedInput(t *testing.T) {
	b, err := encodeMode([]float64{1, 2, 3, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := decode[[]float64](b[:cut]); err == nil {
			t.Fatalf("decode accepted truncation at %d/%d bytes", cut, len(b))
		}
	}
	if _, err := decode[int](nil); err == nil {
		t.Fatal("decode accepted empty payload")
	}
	// Wrong-tag decode must error, not misparse.
	b, _ = encodeMode("text", false)
	if _, err := decode[[]float64](b); err == nil {
		t.Fatal("decode accepted string payload as []float64")
	}
}

func TestWireCodecSliceTagsAppendOnly(t *testing.T) {
	// Tags are wire values: a peer built before a shape was added must
	// still read every older tag the same way, so new shapes only append.
	if tagSplitEntrySS != 23 || tagInt32Slice != 24 || tagUint64Slice != 25 {
		t.Fatalf("tag values moved: splitEntrySS=%d int32Slice=%d uint64Slice=%d",
			tagSplitEntrySS, tagInt32Slice, tagUint64Slice)
	}
	b, err := encodeMode([]int32{1, -1}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{tagInt32Slice, 2, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if !bytes.Equal(b, want) {
		t.Fatalf("[]int32 wire form % x, want % x", b, want)
	}
	// []int32 and []int are distinct shapes: neither decodes as the other.
	if _, err := decode[[]int](b); err == nil {
		t.Fatal("[]int32 payload decoded as []int")
	}
	b, _ = encodeMode([]int{1}, false)
	if _, err := decode[[]int32](b); err == nil {
		t.Fatal("[]int payload decoded as []int32")
	}
}

// hostileCount builds [tag][uvarint n] with no elements behind it.
func hostileCount(tag byte, n uint64) []byte {
	return binary.AppendUvarint([]byte{tag}, n)
}

// decodeErr decodes b into a T and keeps only the error.
func decodeErr[T any](b []byte) error {
	_, err := decode[T](b)
	return err
}

func TestWireCodecRejectsHostileCounts(t *testing.T) {
	// A count the remaining bytes cannot hold must fail as truncated
	// before it reaches make(). 1<<61 elements of 8 bytes wraps the
	// count*width product to 0, which once let the count through to a
	// makeslice panic; the outer counts of variable-width shapes had no
	// bound at all.
	for _, n := range []uint64{1 << 61, 1 << 62, math.MaxUint64, 1 << 40, 2} {
		cases := []struct {
			name string
			err  error
		}{
			{"[]int", decodeErr[[]int](hostileCount(tagIntSlice, n))},
			{"[]int64", decodeErr[[]int64](hostileCount(tagInt64Slice, n))},
			{"[]float64", decodeErr[[]float64](hostileCount(tagFloat64Slice, n))},
			{"[]float32", decodeErr[[]float32](hostileCount(tagFloat32Slice, n))},
			{"[]int32", decodeErr[[]int32](hostileCount(tagInt32Slice, n))},
			{"[]uint64", decodeErr[[]uint64](hostileCount(tagUint64Slice, n))},
			{"[]string", decodeErr[[]string](hostileCount(tagStringSlice, n))},
			{"[]splitEntry", decodeErr[[]splitEntry](hostileCount(tagSplitEntrySlice, n))},
			{"[][]int", decodeErr[[][]int](hostileCount(tagIntSS, n))},
			{"[][]float64", decodeErr[[][]float64](hostileCount(tagFloat64SS, n))},
			{"[][]byte", decodeErr[[][]byte](hostileCount(tagBytesSS, n))},
			{"[][]string", decodeErr[[][]string](hostileCount(tagStringSS, n))},
			{"[][]splitEntry", decodeErr[[][]splitEntry](hostileCount(tagSplitEntrySS, n))},
		}
		for _, c := range cases {
			if c.err == nil {
				t.Errorf("%s with count %d and no elements: decode succeeded", c.name, n)
			}
		}
	}
	// A nested shape whose inner count is hostile fails the same way.
	inner := binary.AppendUvarint(hostileCount(tagIntSS, 1), 1<<61)
	if decodeErr[[][]int](inner) == nil {
		t.Fatal("[][]int with a hostile inner count decoded")
	}
}

// FuzzWireCodecRoundTrip drives every fast-path shape from fuzzer inputs
// and pins fast-codec round trips against the gob oracle.
func FuzzWireCodecRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), "", []byte{})
	f.Add(int64(-1), uint64(math.MaxUint64), "seed", []byte{1, 2, 3})
	f.Add(int64(math.MaxInt64), uint64(1)<<40, "δύο", bytes.Repeat([]byte{0xFF}, 100))
	f.Add(int64(1), uint64(2), "x", hostileCount(tagFloat64Slice, 1<<61))
	f.Fuzz(func(t *testing.T, i int64, u uint64, s string, raw []byte) {
		fl := math.Float64frombits(u)
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN breaks DeepEqual; the bit pattern is pinned below anyway
		}
		checkRoundTrip(t, i)
		checkRoundTrip(t, int(i))
		checkRoundTrip(t, int32(i))
		checkRoundTrip(t, uint32(u))
		checkRoundTrip(t, u)
		checkRoundTrip(t, fl)
		checkRoundTrip(t, float32(fl))
		checkRoundTrip(t, s)
		checkRoundTrip(t, raw)
		checkRoundTrip(t, []string{s, string(raw)})
		checkRoundTrip(t, splitEntry{Color: int(i), Key: int(u), Rank: int(i >> 7)})
		checkRoundTrip(t, []uint64{u, uint64(i), u ^ uint64(i)})

		ints := make([]int, 0, len(raw))
		f64s := make([]float64, 0, len(raw)/8)
		for _, b := range raw {
			ints = append(ints, int(int8(b))*int(i%1024+1))
		}
		for k := 0; k+8 <= len(raw); k += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[k:]))
			if !math.IsNaN(v) {
				f64s = append(f64s, v)
			}
		}
		i32s := make([]int32, 0, len(raw)/4)
		for k := 0; k+4 <= len(raw); k += 4 {
			i32s = append(i32s, int32(binary.LittleEndian.Uint32(raw[k:])))
		}
		checkRoundTrip(t, i32s)
		if len(ints) > 0 {
			checkRoundTrip(t, ints)
			checkRoundTrip(t, [][]int{ints, nil, ints[:len(ints)/2]})
		}
		if len(f64s) > 0 {
			checkRoundTrip(t, f64s)
			checkRoundTrip(t, [][]float64{f64s})
		}

		// Raw frame bytes thrown at the decoder must never panic; errors
		// are fine.
		_, _ = decode[[]float64](raw)
		_, _ = decode[[][]string](raw)
		_, _ = decode[splitEntry](raw)
		_, _ = decode[string](raw)
		_, _ = decode[[]int](raw)
		_, _ = decode[[]int32](raw)
		_, _ = decode[[]uint64](raw)
		_, _ = decode[[][]int](raw)
		_, _ = decode[[]string](raw)
		_, _ = decode[[]splitEntry](raw)
	})
}

// TestSmallSendZeroAllocs pins the headline perf property: a small-message
// send/receive round over the in-process transport allocates nothing —
// encode buffers come from the wirecodec freelists, the matcher is a plain
// value, and the traffic counters are preallocated atomics — on the world
// communicator and on a split one alike.
func TestSmallSendZeroAllocs(t *testing.T) {
	tr := cluster.NewChanTransport(1)
	defer tr.Close()
	w, err := newWorld(1, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	world := newWorldComm(w, 0)
	sub, err := world.Split(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Comm{world, sub} {
		round := func() {
			if err := sendRaw(c, 42, 0, 5); err != nil {
				t.Fatal(err)
			}
			if _, _, err := recvRaw[int](c, 0, 5); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			round() // warm the buffer freelists and mailbox queue
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("comm %d: small-message send/recv allocates %.1f objects per round, want 0", c.id, allocs)
		}
	}
}

// TestPooledBufferReuse checks the encode path actually recycles: a
// send/recv round returns its buffer, and the next encode of a same-class
// payload reuses it.
func TestPooledBufferReuse(t *testing.T) {
	b1, err := encodeMode([]int{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	p1 := &b1[:1][0]
	wirecodec.Put(b1)
	b2, err := encodeMode([]int{4, 5, 6}, false)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &b2[:1][0]
	defer wirecodec.Put(b2)
	if p1 != p2 {
		t.Skip("buffer not reused (another goroutine raced the freelist); reuse is best-effort")
	}
}
