// Encoded columnar storage. An EncodedRelation is a compressed, read-only
// view of a Relation: every column is re-encoded by a one-pass scan that
// picks the cheapest lossless representation, and the engine's cube kernel
// aggregates directly over the encoded blocks without materialising rows.
// RawView is the same interface over the uncompressed columns.
//
// The encoding menu (selection order, first match wins):
//
//	categorical:  const            (domain size <= 1)
//	              dict-bp<w>       (non-straddling bit-packed codes)
//	measure:      const            (all rows share one bit pattern)
//	              seq              (arithmetic progression of exact ints)
//	              int-for-bp<w>    (frame-of-reference deltas, w <= 32)
//	              raw              (float64 slice, shared with the Relation)
//
// Every encoding is lossless bit-for-bit: decoding reproduces the original
// float64 bit patterns including NaN payloads. The only value excluded from
// the integer encodings is -0.0 (its bits differ from 0.0), which forces the
// raw fallback — that is what makes the engine's cube kernel bit-identical
// over either view.
package table

import (
	"math"
	"math/bits"

	"comparenb/internal/faultinject"
)

// Column is the common surface of every encoded column.
type Column interface {
	// Len returns the number of rows.
	Len() int
	// Encoding names the chosen representation (e.g. "dict-bp5").
	Encoding() string
	// RawBytes is the size of the uncompressed column payload.
	RawBytes() int
	// EncodedBytes is the size of the encoded payload actually retained.
	EncodedBytes() int
}

// CatColumn is an encoded categorical column: dictionary codes in [0, dom).
type CatColumn interface {
	Column
	// Code returns the dictionary code of row i.
	Code(i int) int32
	// UnpackCodes decodes rows [lo, hi) into dst[0:hi-lo].
	UnpackCodes(dst []int32, lo, hi int)
}

// MeasColumn is an encoded measure column of float64 values.
type MeasColumn interface {
	Column
	// Value returns the float64 value of row i, bit-for-bit.
	Value(i int) float64
	// UnpackValues decodes rows [lo, hi) into dst[0:hi-lo], bit-for-bit.
	UnpackValues(dst []float64, lo, hi int)
}

// IntMeas is implemented by measure encodings whose values are exact
// integers stored as deltas from a base (seq and int-for-bp<w>). The engine
// aggregates such columns in the integer domain.
type IntMeas interface {
	MeasColumn
	// Base is the frame of reference: value(i) = Base + delta(i), exactly.
	Base() int64
	// MaxDelta bounds every delta (deltas are non-negative).
	MaxDelta() uint64
	// SumExact reports whether float64 accumulation of this column is exact
	// at every partial sum (maxAbs * rows < 2^53), which lets the engine
	// accumulate in int64 and convert once at the end, bit-identically.
	SumExact() bool
	// UnpackDeltas decodes the deltas of rows [lo, hi) into dst[0:hi-lo].
	UnpackDeltas(dst []uint64, lo, hi int)
}

// ConstMeas is implemented by the constant measure encoding.
type ConstMeas interface {
	MeasColumn
	// ConstBits is the shared bit pattern of every row.
	ConstBits() uint64
}

// ColumnStats summarises one column's encoding for observability output.
type ColumnStats struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"` // "categorical" | "measure"
	Encoding     string  `json:"encoding"`
	RawBytes     int     `json:"raw_bytes"`
	EncodedBytes int     `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"` // raw / encoded (0 when encoded is 0 bytes)
}

// EncodedRelation is the compressed view of a Relation. It is immutable and
// safe for concurrent readers.
type EncodedRelation struct {
	rows int
	cats []CatColumn
	meas []MeasColumn

	rawBytes      int
	encodedBytes  int
	retainedBytes int
	stats         []ColumnStats
}

// NumRows returns the number of tuples.
func (e *EncodedRelation) NumRows() int { return e.rows }

// Cat returns encoded categorical column a.
func (e *EncodedRelation) Cat(a int) CatColumn { return e.cats[a] }

// Meas returns encoded measure column m.
func (e *EncodedRelation) Meas(m int) MeasColumn { return e.meas[m] }

// RawBytes is the total uncompressed payload size across all columns.
func (e *EncodedRelation) RawBytes() int { return e.rawBytes }

// EncodedBytes is the total encoded payload size across all columns.
func (e *EncodedRelation) EncodedBytes() int { return e.encodedBytes }

// RetainedBytes is the extra memory the encoded view actually holds on to:
// EncodedBytes minus columns whose encoding aliases the Relation's own
// storage (the raw float64 fallback). Admission accounting charges this.
func (e *EncodedRelation) RetainedBytes() int { return e.retainedBytes }

// ColumnStats returns a copy of the per-column encoding summaries, in
// schema order (categorical attributes first, then measures).
func (e *EncodedRelation) ColumnStats() []ColumnStats {
	out := make([]ColumnStats, len(e.stats))
	copy(out, e.stats)
	return out
}

// Encoded returns the encoded view of the relation, building it on first
// use and caching it. The build is guarded by sync.Once, so concurrent
// callers encode at most once; the result is a pure function of the column
// data, making the encoded/raw choice deterministic. Encoded returns nil
// only if the encoding phase was fault-injected (faultinject site
// "table.encode.column"), in which case callers fall back to RawView.
func (r *Relation) Encoded() *EncodedRelation {
	r.encodeOnce.Do(func() {
		defer func() {
			r.encodeDone.Store(true)
			if p := recover(); p != nil {
				if _, ok := p.(EncodeAbort); !ok {
					panic(p)
				}
				r.encoded = nil
			}
		}()
		r.encoded = encodeRelation(r)
	})
	return r.encoded
}

// EncodeAbort is the panic value a faultinject hook registered at site
// faultinject.TableEncodeColumn may raise to abort the encoding pass.
// Encoded recovers exactly this type (anything else propagates), leaves the
// relation without an encoded view, and callers fall back to RawView.
type EncodeAbort struct {
	Reason string
}

// EncodedCached returns the encoded view if Encoded has already built one,
// without triggering an encode. Admission accounting uses this to charge
// only for encodings that actually exist.
func (r *Relation) EncodedCached() *EncodedRelation {
	if !r.encodeDone.Load() {
		return nil
	}
	return r.encoded
}

// RawView returns the uncompressed view of the relation: every column is
// a raw-alias encoding of the relation's own storage ("raw"), so nothing is
// copied and the view retains nothing. The cube kernel reads it wherever it
// does not read Encoded (small relations, -no-compress, an aborted encode).
// It is built on every call and never cached — Encoded and EncodedCached
// never return it — and it carries no byte totals or ColumnStats, which
// describe a compression that did not happen.
func (r *Relation) RawView() *EncodedRelation {
	e := &EncodedRelation{rows: r.rows}
	for _, codes := range r.catCols {
		e.cats = append(e.cats, &rawCat{codes: codes})
	}
	for _, vals := range r.measCols {
		e.meas = append(e.meas, &rawMeas{vals: vals})
	}
	return e
}

func encodeRelation(r *Relation) *EncodedRelation {
	e := &EncodedRelation{rows: r.rows}
	for a := range r.catCols {
		faultinject.Fire(faultinject.TableEncodeColumn)
		col := encodeCat(r.catCols[a], len(r.catDicts[a]))
		e.cats = append(e.cats, col)
		e.stats = append(e.stats, columnStats(r.catNames[a], "categorical", col))
		e.rawBytes += col.RawBytes()
		e.encodedBytes += col.EncodedBytes()
		e.retainedBytes += col.EncodedBytes()
	}
	for m := range r.measCols {
		faultinject.Fire(faultinject.TableEncodeColumn)
		col := encodeMeas(r.measCols[m])
		e.meas = append(e.meas, col)
		e.stats = append(e.stats, columnStats(r.measNames[m], "measure", col))
		e.rawBytes += col.RawBytes()
		e.encodedBytes += col.EncodedBytes()
		if _, aliased := col.(*rawMeas); !aliased {
			e.retainedBytes += col.EncodedBytes()
		}
	}
	return e
}

func columnStats(name, kind string, c Column) ColumnStats {
	s := ColumnStats{
		Name:         name,
		Kind:         kind,
		Encoding:     c.Encoding(),
		RawBytes:     c.RawBytes(),
		EncodedBytes: c.EncodedBytes(),
	}
	if s.EncodedBytes > 0 {
		s.Ratio = float64(s.RawBytes) / float64(s.EncodedBytes)
	}
	return s
}

// ---------------------------------------------------------------------------
// Categorical encodings

func encodeCat(codes []int32, domSize int) CatColumn {
	if domSize <= 1 {
		return &constCat{n: len(codes)}
	}
	w := bits.Len32(uint32(domSize - 1))
	return &packedCat{
		n:     len(codes),
		width: w,
		words: packCodes(codes, w),
	}
}

// rawCat is the raw-alias categorical column of RawView: the relation's
// own code slice (no copy, no compression).
type rawCat struct {
	codes []int32
}

func (c *rawCat) Len() int          { return len(c.codes) }
func (c *rawCat) Encoding() string  { return "raw" }
func (c *rawCat) RawBytes() int     { return 4 * len(c.codes) }
func (c *rawCat) EncodedBytes() int { return 4 * len(c.codes) }
func (c *rawCat) Code(i int) int32  { return c.codes[i] }

func (c *rawCat) UnpackCodes(dst []int32, lo, hi int) {
	copy(dst[:hi-lo], c.codes[lo:hi])
}

// constCat encodes a column whose domain has at most one value: every row
// is code 0 and no payload is stored.
type constCat struct {
	n int
}

func (c *constCat) Len() int          { return c.n }
func (c *constCat) Encoding() string  { return "const" }
func (c *constCat) RawBytes() int     { return 4 * c.n }
func (c *constCat) EncodedBytes() int { return 0 }
func (c *constCat) Code(int) int32    { return 0 }

func (c *constCat) UnpackCodes(dst []int32, lo, hi int) {
	for i := range dst[:hi-lo] {
		dst[i] = 0
	}
}

// packedCat stores dictionary codes bit-packed at the domain's natural
// width. Packing is non-straddling: each 64-bit word holds floor(64/w)
// codes and a code never crosses a word boundary, so unpacking is a
// branch-free shift/mask loop.
type packedCat struct {
	n     int
	width int
	words []uint64
}

func (c *packedCat) Len() int          { return c.n }
func (c *packedCat) Encoding() string  { return "dict-bp" + itoa(c.width) }
func (c *packedCat) RawBytes() int     { return 4 * c.n }
func (c *packedCat) EncodedBytes() int { return 8 * len(c.words) }

func (c *packedCat) Code(i int) int32 {
	per := 64 / c.width
	word := c.words[i/per]
	shift := uint((i % per) * c.width)
	mask := uint64(1)<<c.width - 1
	return int32(word >> shift & mask)
}

func (c *packedCat) UnpackCodes(dst []int32, lo, hi int) {
	w := c.width
	per := 64 / w
	mask := uint64(1)<<w - 1
	wi := lo / per
	slot := lo % per
	di, n := 0, hi-lo
	for di < n {
		word := c.words[wi] >> uint(slot*w)
		for ; slot < per && di < n; slot++ {
			dst[di] = int32(word & mask)
			word >>= uint(w)
			di++
		}
		slot = 0
		wi++
	}
}

func packCodes(codes []int32, w int) []uint64 {
	per := 64 / w
	words := make([]uint64, (len(codes)+per-1)/per)
	wi, slot := 0, 0
	var cur uint64
	for _, c := range codes {
		cur |= uint64(uint32(c)) << uint(slot*w)
		slot++
		if slot == per {
			words[wi] = cur
			wi++
			slot = 0
			cur = 0
		}
	}
	if slot > 0 {
		words[wi] = cur
	}
	return words
}

// ---------------------------------------------------------------------------
// Measure encodings

// maxExactSum is the largest integer magnitude that float64 represents
// exactly: every |partial sum| <= maxExactSum stays exact under float64
// addition.
const maxExactSum = int64(1)<<53 - 1

func encodeMeas(vals []float64) MeasColumn {
	n := len(vals)
	if n == 0 {
		return &rawMeas{vals: vals}
	}

	firstBits := math.Float64bits(vals[0])
	allSame := true

	// Integer detection must be bit-for-bit: a value participates only if
	// converting through int64 reproduces its exact bit pattern. This
	// excludes NaN, ±Inf, -0.0 and anything with a fractional part or
	// |v| >= 2^63.
	allInt := true
	var minI, maxI int64

	// Arithmetic-progression detection in wrapping int64 space.
	seqOK := true
	var stride int64

	prev := int64(0)
	for i, v := range vals {
		if math.Float64bits(v) != firstBits {
			allSame = false
		}
		if allInt {
			iv, ok := exactInt(v)
			if !ok {
				allInt = false
				seqOK = false
			} else {
				if i == 0 {
					minI, maxI = iv, iv
				} else {
					if iv < minI {
						minI = iv
					}
					if iv > maxI {
						maxI = iv
					}
					if i == 1 {
						stride = iv - prev
					} else if iv-prev != stride {
						seqOK = false
					}
				}
				prev = iv
			}
		}
		if !allInt && !allSame {
			break
		}
	}

	if allSame {
		return &constMeas{n: n, bits: firstBits}
	}
	if !allInt {
		return &rawMeas{vals: vals}
	}

	maxAbs := uint64(maxI)
	if maxI < 0 {
		maxAbs = uint64(-maxI)
	}
	if a := uint64(-minI); minI < 0 && a > maxAbs {
		maxAbs = a
	}
	sumExact := maxAbs <= uint64(maxExactSum)/uint64(n)
	maxDelta := uint64(maxI) - uint64(minI) // maxI >= minI, fits in uint64

	if seqOK && n >= 2 {
		return &seqMeas{
			n: n, base: minI, first: vals[0], stride: stride,
			maxDelta: maxDelta, sumExact: sumExact,
		}
	}
	w := bits.Len64(maxDelta)
	if w == 0 {
		w = 1
	}
	if w > 32 {
		return &rawMeas{vals: vals}
	}
	deltas := make([]uint64, n)
	for i, v := range vals {
		deltas[i] = uint64(int64(v)) - uint64(minI)
	}
	return &intFORMeas{
		n: n, base: minI, width: w, words: packDeltas(deltas, w),
		maxDelta: maxDelta, sumExact: sumExact,
	}
}

// exactInt reports whether v is a bit-exact float64 integer representable
// in int64, and returns it. The round trip through int64 and back must
// reproduce v's exact bit pattern, which rejects NaN, ±Inf, fractional
// values, -0.0 and |v| >= 2^63.
func exactInt(v float64) (int64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v >= 1<<63 || v < -(1<<63) {
		return 0, false
	}
	iv := int64(v)
	if math.Float64bits(float64(iv)) != math.Float64bits(v) {
		return 0, false
	}
	return iv, true
}

// rawMeas is the fallback (and RawView's measure column): the float64
// slice itself, shared with the Relation (no copy, no compression).
type rawMeas struct {
	vals []float64
}

func (c *rawMeas) Len() int            { return len(c.vals) }
func (c *rawMeas) Encoding() string    { return "raw" }
func (c *rawMeas) RawBytes() int       { return 8 * len(c.vals) }
func (c *rawMeas) EncodedBytes() int   { return 8 * len(c.vals) }
func (c *rawMeas) Value(i int) float64 { return c.vals[i] }
func (c *rawMeas) Values() []float64   { return c.vals }

func (c *rawMeas) UnpackValues(dst []float64, lo, hi int) {
	copy(dst[:hi-lo], c.vals[lo:hi])
}

// constMeas stores the single bit pattern shared by every row. NaN payloads
// survive because the pattern is stored as raw bits, not as a float.
type constMeas struct {
	n    int
	bits uint64
}

func (c *constMeas) Len() int          { return c.n }
func (c *constMeas) Encoding() string  { return "const" }
func (c *constMeas) RawBytes() int     { return 8 * c.n }
func (c *constMeas) EncodedBytes() int { return 8 }
func (c *constMeas) ConstBits() uint64 { return c.bits }
func (c *constMeas) Value(int) float64 { return math.Float64frombits(c.bits) }

func (c *constMeas) UnpackValues(dst []float64, lo, hi int) {
	v := math.Float64frombits(c.bits)
	for i := range dst[:hi-lo] {
		dst[i] = v
	}
}

// seqMeas encodes an arithmetic progression of exact integers: value(i) =
// first + stride*i in wrapping int64 arithmetic (the scan verified every
// element). Base is the minimum, so deltas are non-negative.
type seqMeas struct {
	n        int
	base     int64
	first    float64
	stride   int64
	maxDelta uint64
	sumExact bool
}

func (c *seqMeas) Len() int          { return c.n }
func (c *seqMeas) Encoding() string  { return "seq" }
func (c *seqMeas) RawBytes() int     { return 8 * c.n }
func (c *seqMeas) EncodedBytes() int { return 24 }
func (c *seqMeas) Base() int64       { return c.base }
func (c *seqMeas) MaxDelta() uint64  { return c.maxDelta }
func (c *seqMeas) SumExact() bool    { return c.sumExact }

func (c *seqMeas) valueInt(i int) int64 {
	return int64(uint64(int64(c.first)) + uint64(c.stride)*uint64(i))
}

func (c *seqMeas) Value(i int) float64 { return float64(c.valueInt(i)) }

func (c *seqMeas) UnpackValues(dst []float64, lo, hi int) {
	v := uint64(c.valueInt(lo))
	s := uint64(c.stride)
	for i := range dst[:hi-lo] {
		dst[i] = float64(int64(v))
		v += s
	}
}

func (c *seqMeas) UnpackDeltas(dst []uint64, lo, hi int) {
	v := uint64(c.valueInt(lo))
	b := uint64(c.base)
	s := uint64(c.stride)
	for i := range dst[:hi-lo] {
		dst[i] = v - b
		v += s
	}
}

// intFORMeas is frame-of-reference encoding for exact-integer measures:
// value(i) = base + delta(i) with base = min and deltas bit-packed
// non-straddling at width <= 32.
type intFORMeas struct {
	n        int
	base     int64
	width    int
	words    []uint64
	maxDelta uint64
	sumExact bool
}

func (c *intFORMeas) Len() int          { return c.n }
func (c *intFORMeas) Encoding() string  { return "int-for-bp" + itoa(c.width) }
func (c *intFORMeas) RawBytes() int     { return 8 * c.n }
func (c *intFORMeas) EncodedBytes() int { return 8 * len(c.words) }
func (c *intFORMeas) Base() int64       { return c.base }
func (c *intFORMeas) MaxDelta() uint64  { return c.maxDelta }
func (c *intFORMeas) SumExact() bool    { return c.sumExact }

func (c *intFORMeas) delta(i int) uint64 {
	per := 64 / c.width
	word := c.words[i/per]
	shift := uint((i % per) * c.width)
	mask := uint64(1)<<c.width - 1
	return word >> shift & mask
}

func (c *intFORMeas) Value(i int) float64 {
	return float64(c.base + int64(c.delta(i)))
}

func (c *intFORMeas) UnpackValues(dst []float64, lo, hi int) {
	w := c.width
	per := 64 / w
	mask := uint64(1)<<w - 1
	wi := lo / per
	slot := lo % per
	di, n := 0, hi-lo
	for di < n {
		word := c.words[wi] >> uint(slot*w)
		for ; slot < per && di < n; slot++ {
			dst[di] = float64(c.base + int64(word&mask))
			word >>= uint(w)
			di++
		}
		slot = 0
		wi++
	}
}

func (c *intFORMeas) UnpackDeltas(dst []uint64, lo, hi int) {
	w := c.width
	per := 64 / w
	mask := uint64(1)<<w - 1
	wi := lo / per
	slot := lo % per
	di, n := 0, hi-lo
	for di < n {
		word := c.words[wi] >> uint(slot*w)
		for ; slot < per && di < n; slot++ {
			dst[di] = word & mask
			word >>= uint(w)
			di++
		}
		slot = 0
		wi++
	}
}

func packDeltas(deltas []uint64, w int) []uint64 {
	per := 64 / w
	words := make([]uint64, (len(deltas)+per-1)/per)
	wi, slot := 0, 0
	var cur uint64
	for _, d := range deltas {
		cur |= d << uint(slot*w)
		slot++
		if slot == per {
			words[wi] = cur
			wi++
			slot = 0
			cur = 0
		}
	}
	if slot > 0 {
		words[wi] = cur
	}
	return words
}

// itoa is a minimal positive-int formatter (avoids strconv in the hot
// encoding names, and keeps the import list short).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
