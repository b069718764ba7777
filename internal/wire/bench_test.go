package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchElems is the element count of every benchmark frame: the size of
// one bulk request of the repository benchmark.
const benchElems = 256 << 10

// benchLists splits benchElems random values of type typ into k equal
// lists and returns them with their encoded frame.
func benchLists(typ Type, k int) (ints [][]int64, floats [][]float64, frame []byte) {
	rng := rand.New(rand.NewSource(1))
	per := benchElems / k
	for i := 0; i < k; i++ {
		a, f := make([]int64, per), make([]float64, per)
		for j := range a {
			a[j], f[j] = rng.Int63(), rng.NormFloat64()
		}
		ints, floats = append(ints, a), append(floats, f)
	}
	if typ == Int64 {
		return ints, nil, AppendInt64(nil, ints...)
	}
	return nil, floats, AppendFloat64(nil, floats...)
}

// BenchmarkDecode measures Decode of a 256K-element frame from memory,
// one and 32 lists, int64 and float64; MB/s counts frame bytes.
func BenchmarkDecode(b *testing.B) {
	for _, typ := range []Type{Int64, Float64} {
		for _, k := range []int{1, 32} {
			_, _, frame := benchLists(typ, k)
			b.Run(fmt.Sprintf("%v/lists=%d", typ, k), func(b *testing.B) {
				b.SetBytes(int64(len(frame)))
				b.ReportAllocs()
				r := bytes.NewReader(frame)
				for i := 0; i < b.N; i++ {
					r.Reset(frame)
					f, err := Decode(r, Limits{})
					if err != nil {
						b.Fatal(err)
					}
					f.Release()
				}
			})
		}
	}
}

// BenchmarkEncode measures Encode of 256K elements into a reused
// in-memory buffer, one and 32 lists, int64 and float64; MB/s counts
// frame bytes.
func BenchmarkEncode(b *testing.B) {
	for _, typ := range []Type{Int64, Float64} {
		for _, k := range []int{1, 32} {
			ints, floats, frame := benchLists(typ, k)
			b.Run(fmt.Sprintf("%v/lists=%d", typ, k), func(b *testing.B) {
				b.SetBytes(int64(len(frame)))
				b.ReportAllocs()
				var buf bytes.Buffer
				buf.Grow(len(frame))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf.Reset()
					var err error
					if typ == Int64 {
						err = EncodeInt64(&buf, ints...)
					} else {
						err = EncodeFloat64(&buf, floats...)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
