// Package byteview moves int64/float64 payloads as raw bytes. The frame
// format (internal/wire) and the spill-file records (internal/extsort)
// both store 8-byte little-endian values, which on a little-endian host
// is exactly the memory of an []int64 or []float64: Bytes exposes that
// memory as a []byte so one Read or Write moves a whole slice. Hosts
// where Native is false use the portable Get/Put loops instead.
//
// This is the only package in the module that imports unsafe
// (`make lint-docs` checks it).
package byteview

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Native reports whether the host stores integers little-endian, so
// that Bytes of a slice is already its wire and file encoding.
var Native = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Bytes returns the memory of s as 8·len(s) bytes, aliasing s: writes
// through either view show in the other, and the view is valid only
// while s is. A nil or empty s gives an empty view.
func Bytes[T int64 | float64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// Get decodes len(dst) little-endian values from src, which must hold
// at least 8·len(dst) bytes. It is the portable counterpart of reading
// straight into Bytes(dst).
func Get[T int64 | float64](dst []T, src []byte) {
	src = src[:8*len(dst)]
	switch d := any(dst).(type) {
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// Put encodes src into dst as little-endian values; dst must hold at
// least 8·len(src) bytes. It is the portable counterpart of writing
// Bytes(src).
func Put[T int64 | float64](dst []byte, src []T) {
	dst = dst[:8*len(src)]
	switch s := any(src).(type) {
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}
