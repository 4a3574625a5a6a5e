package engine

import (
	"fmt"
	"math"
	"testing"

	"comparenb/internal/table"
)

// fuzzRelation decodes a small relation from fuzz bytes, or returns nil
// when the bytes hold no row. The header is three bytes:
//
//	data[0]  flags: bit 0 tiles the rows past buildShardRows so the shard
//	         merge runs; bit 1 switches to 64 two-valued attributes, whose
//	         key space overflows uint64 once every attribute sees both
//	         values
//	data[1]  1 + (data[1]&3)%3 attributes with domain modulus
//	         1 + (data[1]>>2)%8 (1 = single-valued)
//	data[2]  1 + (data[2]&3)%3 measures; bit j of data[2]>>2 makes
//	         measure j a constant column (every row repeats row 0's value)
//
// Each row then takes one byte per attribute (8 bytes, one bit per
// attribute, in wide mode) and a (selector, argument) byte pair per
// measure, decoded by fuzzValue. At most 64 rows are read.
func fuzzRelation(data []byte) *table.Relation {
	if len(data) < 3 {
		return nil
	}
	flags, ca, cm := data[0], data[1], data[2]
	data = data[3:]
	nA, dom := 1+int(ca&3)%3, 1+int(ca>>2)%8
	catBytes := nA
	if flags&2 != 0 {
		nA, catBytes = 64, 8
	}
	nM := 1 + int(cm&3)%3
	rowBytes := catBytes + 2*nM
	nRows := min(len(data)/rowBytes, 64)
	if nRows == 0 {
		return nil
	}

	catNames := make([]string, nA)
	for a := range catNames {
		catNames[a] = fmt.Sprintf("a%d", a)
	}
	measNames := make([]string, nM)
	for m := range measNames {
		measNames[m] = fmt.Sprintf("m%d", m)
	}
	cats := make([][]string, nRows)
	meas := make([][]float64, nRows)
	for r := range cats {
		row := data[r*rowBytes : (r+1)*rowBytes]
		cats[r] = make([]string, nA)
		for a := range cats[r] {
			if flags&2 != 0 {
				cats[r][a] = fmt.Sprint(row[a/8] >> (a % 8) & 1)
			} else {
				cats[r][a] = fmt.Sprintf("v%d", int(row[a])%dom)
			}
		}
		meas[r] = make([]float64, nM)
		for m := range meas[r] {
			src := row
			if (cm>>2)&(1<<m) != 0 {
				src = data[:rowBytes] // constant column: row 0's value
			}
			meas[r][m] = fuzzValue(src[catBytes+2*m], src[catBytes+2*m+1])
		}
	}

	tiles := 1
	if flags&1 != 0 {
		tiles = buildShardRows/nRows + 2
	}
	b := table.NewBuilder("fuzz", catNames, measNames)
	for t := 0; t < tiles; t++ {
		for r := range cats {
			b.AddRow(cats[r], meas[r])
		}
	}
	return b.Build()
}

// fuzzValue decodes one measure value: NaN with a payload, -0.0, exact
// integers at and just below 2^53 (whose sums are not exact), small exact
// integers, exact fractions, ±Inf, values large enough for sums to
// overflow to Inf, and inexact floats.
func fuzzValue(sel, arg byte) float64 {
	switch sel % 8 {
	case 0:
		return math.Float64frombits(0x7ff0_0000_0000_0001 | uint64(arg)<<8)
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(int64(1)<<53 - int64(arg))
	case 3:
		return float64(int(arg) - 128)
	case 4:
		return float64(arg) / 8
	case 5:
		return math.Inf(1 - 2*int(arg&1))
	case 6:
		return float64(arg) * 1e306
	default:
		return float64(arg) / 3
	}
}

// FuzzBuildCube checks the cube kernel against the shard-aware reference
// builder: at threads {1,2,8}, the cube over every attribute of a
// fuzz-decoded relation must match the reference bit for bit. The seed
// corpus lives in testdata/fuzz/FuzzBuildCube.
func FuzzBuildCube(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		attrs := make([]int, rel.NumCatAttrs())
		for a := range attrs {
			attrs[a] = a
		}
		want := referenceBuildCube(rel, attrs)
		for _, threads := range []int{1, 2, 8} {
			requireMatchesReference(t, fmt.Sprintf("threads=%d", threads), want, mustBuildCube(t, rel, attrs, threads))
		}
	})
}
