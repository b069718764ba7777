package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
)

// Reference outputs and encodings, built in set-up from the documented
// formats (docs/WIRE.md, the /v1 JSON documents) without calling the
// program, so a response is checked against an independent answer.

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// sortedUniform returns n sorted values drawn uniformly from [0, hi).
func sortedUniform(rng *rand.Rand, n int, hi int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = rng.Int64N(hi)
	}
	slices.Sort(v)
	return v
}

// sortedConcat is the stable merge of lists as a fresh slice. For
// int64 keys equal values are indistinguishable, so sorting the
// concatenation gives the same bytes as the stable k-way order.
func sortedConcat(lists ...[]int64) []int64 {
	var out []int64
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

// setOp is the multiset result of op on sorted a and b: for a value
// with x copies in a and y in b, union keeps max(x,y), intersect
// min(x,y) and diff max(0,x-y).
func setOp(op string, a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			v = a[i]
		default:
			v = b[j]
		}
		x, y := 0, 0
		for i < len(a) && a[i] == v {
			i++
			x++
		}
		for j < len(b) && b[j] == v {
			j++
			y++
		}
		n := 0
		switch op {
		case "union":
			n = max(x, y)
		case "intersect":
			n = min(x, y)
		case "diff":
			n = max(0, x-y)
		}
		for ; n > 0; n-- {
			out = append(out, v)
		}
	}
	return out
}

// selectRanks walks the stable merge of a and b (ties take a first) for
// k >= 1 steps and returns how many came from each and the k-th value.
func selectRanks(a, b []int64, k int) (ar, br int, kth int64) {
	for ar+br < k {
		if br >= len(b) || (ar < len(a) && a[ar] <= b[br]) {
			kth = a[ar]
			ar++
		} else {
			kth = b[br]
			br++
		}
	}
	return ar, br, kth
}

// frame encodes lists as one int64 frame: "MPW1", version 1, type 1,
// uint16 list count, a uint64 length per list, then the elements, all
// little-endian.
func frame(lists ...[]int64) []byte {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	b := make([]byte, 0, 8+8*len(lists)+8*n)
	b = append(b, 'M', 'P', 'W', '1', 1, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(lists)))
	for _, l := range lists {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(l)))
	}
	for _, l := range lists {
		for _, v := range l {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// records encodes v as little-endian 8-byte records (the dataset format).
func records(v []int64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// jsonLine is the body json.Encoder writes: the document plus a newline.
func jsonLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of ints are encoded
	}
	return append(b, '\n')
}

// resultDoc is the JSON body of an array endpoint's 200.
type resultDoc struct {
	Result []int64 `json:"result"`
}

// selectDoc is the JSON body of /v1/select's 200 for k >= 1.
type selectDoc struct {
	ARank int   `json:"a_rank"`
	BRank int   `json:"b_rank"`
	Kth   int64 `json:"kth"`
}

// logNormalSizes returns n sizes whose empirical distribution is the
// log-normal with the given median and sigma, clamped to [lo, hi]: the
// i-th size is the (i+0.5)/n quantile. Stratifying instead of sampling
// keeps the size mix, and so the work per run, the same for every seed.
func logNormalSizes(n, median int, sigma float64, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		s := int(math.Round(float64(median) * math.Exp(sigma*z)))
		out[i] = min(max(s, lo), hi)
	}
	return out
}
