package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/iotest"
)

// onPath runs fn with the payload path forced: the raw-byte native path
// or the portable conversion loops.
func onPath(isNative bool, fn func()) {
	saved := native
	native = isNative
	defer func() { native = saved }()
	fn()
}

// refFrame encodes a frame field by field, independent of the package's
// own encoders: the byte-level spec of docs/WIRE.md.
func refFrame(t Type, bits [][]uint64) []byte {
	out := append([]byte("MPW1"), Version, byte(t))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(bits)))
	for _, l := range bits {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(l)))
	}
	for _, l := range bits {
		for _, v := range l {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	return out
}

// pathShapes returns list-length shapes covering no lists, one list,
// many lists, a length table longer than a chunk, and lists that fill,
// just miss and straddle the 64 KiB chunk.
func pathShapes() map[string][]int {
	per := chunkBytes / 8
	many := make([]int, 100)
	for i := range many {
		many[i] = i % 13
	}
	table := make([]int, per+10) // length table alone exceeds a chunk
	for i := range table {
		table[i] = i % 2
	}
	return map[string][]int{
		"none":          {},
		"one empty":     {0},
		"one":           {7},
		"many":          many,
		"long table":    table,
		"fills chunk":   {per - 2}, // header + 1 length + payload = 64 KiB
		"misses chunk":  {per - 1}, // one element too many for the chunk
		"straddles":     {5, per + 1, 3, 3*per + 17, 0, 1},
		"two halves":    {per / 2, per / 2, per / 2},
		"big then tiny": {2 * per, 1, 1, 1},
	}
}

// specialInts cycles through values whose byte patterns catch sign,
// width and byte-order slips.
var specialInts = []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 0x0102030405060708, -0x0102030405060708}

// specialFloats cycles through signed zeros, infinities, denormals and
// NaN payloads, compared bit for bit.
var specialFloats = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.5,
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
	math.Float64frombits(0xfff0000000000001), // negative signalling NaN
	math.NaN(),
}

// fillLists builds lists of the given lengths by cycling through vals,
// with the bit pattern of every element alongside.
func fillLists[T any](lens []int, vals []T) ([][]T, [][]uint64) {
	var bitsOf func(T) uint64
	switch any(vals).(type) {
	case []int64:
		bitsOf = func(v T) uint64 { return uint64(any(v).(int64)) }
	case []float64:
		bitsOf = func(v T) uint64 { return math.Float64bits(any(v).(float64)) }
	}
	lists := make([][]T, len(lens))
	bits := make([][]uint64, len(lens))
	k := 0
	for i, n := range lens {
		lists[i] = make([]T, n)
		bits[i] = make([]uint64, n)
		for j := range lists[i] {
			lists[i][j] = vals[k%len(vals)]
			bits[i][j] = bitsOf(lists[i][j])
			k++
		}
	}
	return lists, bits
}

// encodings returns the frame as built by Encode and by Append (onto a
// non-empty prefix, stripped again) on the current path.
func encodings[T int64 | float64](t *testing.T, lists [][]T) (enc, app []byte) {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch l := any(lists).(type) {
	case [][]int64:
		err = EncodeInt64(&buf, l...)
		app = AppendInt64([]byte("xy"), l...)
	case [][]float64:
		err = EncodeFloat64(&buf, l...)
		app = AppendFloat64([]byte("xy"), l...)
	}
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if string(app[:2]) != "xy" {
		t.Fatal("append clobbered the prefix of dst")
	}
	return buf.Bytes(), app[2:]
}

// decodedBits decodes body under lim on the current path through a
// reader that returns short reads, flattening every list to bit
// patterns.
func decodedBits(body []byte, lim Limits) ([][]uint64, error) {
	f, err := Decode(iotest.HalfReader(bytes.NewReader(body)), lim)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	var out [][]uint64
	for _, l := range f.Ints {
		b := make([]uint64, len(l))
		for i, v := range l {
			b[i] = uint64(v)
		}
		out = append(out, b)
	}
	for _, l := range f.Floats {
		b := make([]uint64, len(l))
		for i, v := range l {
			b[i] = math.Float64bits(v)
		}
		out = append(out, b)
	}
	return out, nil
}

func equalBits(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestPathsAgree pins the native (raw-byte) and portable payload paths
// to the same frames: Encode and Append on either path give the
// reference bytes, and either path decodes them to the same bits.
func TestPathsAgree(t *testing.T) {
	for name, lens := range pathShapes() {
		t.Run(name+"/int64", func(t *testing.T) { checkPaths(t, Int64, lens, specialInts) })
		t.Run(name+"/float64", func(t *testing.T) { checkPaths(t, Float64, lens, specialFloats) })
	}
}

func checkPaths[T int64 | float64](t *testing.T, typ Type, lens []int, vals []T) {
	lists, bits := fillLists(lens, vals)
	want := refFrame(typ, bits)
	if int64(len(want)) != Size(lens...) {
		t.Fatalf("reference frame is %d bytes, Size says %d", len(want), Size(lens...))
	}
	for _, isNative := range []bool{true, false} {
		onPath(isNative, func() {
			enc, app := encodings(t, lists)
			if !bytes.Equal(enc, want) {
				t.Fatalf("native=%v: Encode differs from the reference frame", isNative)
			}
			if !bytes.Equal(app, want) {
				t.Fatalf("native=%v: Append differs from the reference frame", isNative)
			}
			got, err := decodedBits(want, Limits{})
			if err != nil {
				t.Fatalf("native=%v: decode: %v", isNative, err)
			}
			if !equalBits(got, bits) {
				t.Fatalf("native=%v: decoded lists differ from the encoded ones", isNative)
			}
		})
	}
}

// errClass names the exported error class of a Decode error.
func errClass(err error) error {
	for _, c := range []error{ErrMagic, ErrVersion, ErrType, ErrTooLarge, ErrTruncated, ErrTrailing} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// decodeBoth decodes body under lim on both paths and fails unless they
// agree: the same error class, or the same lists bit for bit.
func decodeBoth(t *testing.T, body []byte, lim Limits) error {
	t.Helper()
	var bitsN, bitsP [][]uint64
	var errN, errP error
	onPath(true, func() { bitsN, errN = decodedBits(body, lim) })
	onPath(false, func() { bitsP, errP = decodedBits(body, lim) })
	if errClass(errN) != errClass(errP) {
		t.Fatalf("native err %v, portable err %v", errN, errP)
	}
	if !equalBits(bitsN, bitsP) {
		t.Fatal("native and portable decodes differ")
	}
	return errN
}

// TestPathsAgreeOnBadBodies cuts frames at every region boundary and
// appends trailing bytes: both paths must report the same error class.
func TestPathsAgreeOnBadBodies(t *testing.T) {
	per := chunkBytes / 8
	lists, _ := fillLists([]int{3, per + 5}, specialInts)
	valid := AppendInt64(nil, lists...)
	payload := headerSize + 8*2
	cuts := []int{0, 3, headerSize, headerSize + 5, payload, payload + 1, payload + 8*3,
		payload + chunkBytes, payload + chunkBytes + 3, len(valid) - 1}
	for _, c := range cuts {
		if err := decodeBoth(t, valid[:c], Limits{}); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", c, err)
		}
	}
	for _, extra := range [][]byte{{0}, make([]byte, 9), make([]byte, chunkBytes)} {
		body := append(append([]byte{}, valid...), extra...)
		if err := decodeBoth(t, body, Limits{}); !errors.Is(err, ErrTrailing) {
			t.Errorf("%d trailing bytes: err = %v, want ErrTrailing", len(extra), err)
		}
	}
	if err := decodeBoth(t, valid, Limits{}); err != nil {
		t.Fatalf("valid body: %v", err)
	}
}

// writeCounter counts Write calls and keeps the bytes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestEncodeWrites pins the write pattern of the native path: short
// lists gather in the chunk, a list that does not fit goes out as one
// write of its own memory.
func TestEncodeWrites(t *testing.T) {
	if !native {
		t.Skip("big-endian host: only the portable path runs")
	}
	per := chunkBytes / 8
	cases := []struct {
		lens   []int
		writes int
	}{
		{nil, 1},
		{[]int{10, 20, 30}, 1},
		{[]int{per * 4}, 2},             // header + table, then the list
		{[]int{per * 4, 3, per * 2}, 4}, // head, list, small list, list
	}
	for _, tc := range cases {
		lists, _ := fillLists(tc.lens, specialInts)
		var w writeCounter
		if err := EncodeInt64(&w, lists...); err != nil {
			t.Fatal(err)
		}
		if w.writes != tc.writes {
			t.Errorf("lens %v: %d writes, want %d", tc.lens, w.writes, tc.writes)
		}
		if !bytes.Equal(w.Bytes(), AppendInt64(nil, lists...)) {
			t.Errorf("lens %v: Encode and Append differ", tc.lens)
		}
	}
}

// TestAppendGrowsOnce pins the one-allocation append: encoding into a
// nil dst allocates exactly the frame.
func TestAppendGrowsOnce(t *testing.T) {
	lists, _ := fillLists([]int{1000, 3, 500}, specialInts)
	want := int(Size(1000, 3, 500))
	allocs := testing.AllocsPerRun(20, func() {
		if b := AppendInt64(nil, lists...); len(b) != want {
			t.Fatalf("frame of %d bytes, want %d", len(b), want)
		}
	})
	if allocs != 1 {
		t.Fatalf("AppendInt64 made %.0f allocations, want 1", allocs)
	}
}
