package byteview

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestBytesAliasesSlice(t *testing.T) {
	if len(Bytes([]int64(nil))) != 0 || len(Bytes([]float64{})) != 0 {
		t.Fatal("nil slice must give an empty view")
	}
	s := []int64{0x0102030405060708, math.MinInt64}
	b := Bytes(s)
	if len(b) != 16 {
		t.Fatalf("view of 2 int64s is %d bytes", len(b))
	}
	clear(b[8:])
	if s[0] != 0x0102030405060708 || s[1] != 0 {
		t.Fatalf("clearing the second half of the view gave %x", s)
	}
	if Native {
		want := binary.LittleEndian.AppendUint64(nil, 0x0102030405060708)
		if !bytes.Equal(b[:8], want) {
			t.Fatalf("native view % x, want % x", b[:8], want)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	floats := []float64{math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000001)}
	buf := make([]byte, 8*len(ints))
	Put(buf, ints)
	for i, v := range ints {
		if got := int64(binary.LittleEndian.Uint64(buf[8*i:])); got != v {
			t.Fatalf("Put int64 %d: got %d", i, got)
		}
	}
	gotI := make([]int64, len(ints))
	Get(gotI, buf)
	for i := range ints {
		if gotI[i] != ints[i] {
			t.Fatalf("Get int64 %d: got %d, want %d", i, gotI[i], ints[i])
		}
	}
	Put(buf, floats)
	gotF := make([]float64, len(floats))
	Get(gotF, buf)
	for i := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float64 %d: bits %x, want %x", i, math.Float64bits(gotF[i]), math.Float64bits(floats[i]))
		}
		if Native && !bytes.Equal(Bytes(floats[i:i+1]), buf[8*i:8*i+8]) {
			t.Fatalf("float64 %d: Put differs from the native view", i)
		}
	}
}
