package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bodies to the frame decoder under a tight
// element limit and asserts the safety contract: never panic, never
// allocate past the limit, classify every malformed body as one of the
// exported error classes, decode the same way (same lists or same error
// class) on the native and the portable payload path, and — when a body
// does decode — survive a re-encode/re-decode round trip bit-exactly.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendInt64(nil))
	f.Add(AppendInt64(nil, []int64{1, 2, 3}, []int64{4}))
	f.Add(AppendFloat64(nil, []float64{1.5, math.Inf(-1)}, nil))
	f.Add([]byte("MPW1 not a frame"))
	f.Add(mutateLen(AppendInt64(nil, []int64{1}), 0, math.MaxUint64))
	f.Add(append(AppendInt64(nil, []int64{7}), 0xFF))
	f.Add(AppendFloat64(nil, []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)}))
	f.Fuzz(func(t *testing.T, body []byte) {
		const limit = 1 << 16
		decodeBoth(t, body, Limits{MaxElements: limit})
		fr, err := Decode(bytes.NewReader(body), Limits{MaxElements: limit})
		if err != nil {
			if fr != nil {
				t.Fatal("non-nil frame alongside error")
			}
			for _, known := range []error{ErrMagic, ErrVersion, ErrType, ErrTooLarge, ErrTruncated, ErrTrailing} {
				if errors.Is(err, known) {
					return
				}
			}
			t.Fatalf("unclassified decode error: %v", err)
		}
		defer fr.Release()
		if fr.Elements() > limit {
			t.Fatalf("decoded %d elements past limit %d", fr.Elements(), limit)
		}
		// A valid frame must re-encode to the exact input bytes (the
		// format has one canonical encoding) and decode again equal.
		var re bytes.Buffer
		switch fr.Type {
		case Int64:
			if err := EncodeInt64(&re, fr.Ints...); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		case Float64:
			if err := EncodeFloat64(&re, fr.Floats...); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		default:
			t.Fatalf("decoded impossible type %v", fr.Type)
		}
		if !bytes.Equal(re.Bytes(), body) {
			t.Fatalf("re-encode differs from input: %d vs %d bytes", re.Len(), len(body))
		}
	})
}
