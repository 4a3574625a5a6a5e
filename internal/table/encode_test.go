package table

import (
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/faultinject"
)

// requireMeasLossless checks the full MeasColumn contract against the
// original values: bit-for-bit equality (so NaN payloads, -0.0 and every
// rounding artefact survive) through both the random-access Value and the
// block Unpack path at several window alignments.
func requireMeasLossless(t *testing.T, label string, vals []float64, col MeasColumn) {
	t.Helper()
	if col.Len() != len(vals) {
		t.Fatalf("%s: Len = %d, want %d", label, col.Len(), len(vals))
	}
	for i, want := range vals {
		if got := col.Value(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Value(%d) = %v (bits %x), want %v (bits %x)",
				label, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, win := range [][2]int{{0, len(vals)}, {1, len(vals)}, {0, len(vals) - 1}, {3, 17}, {7, 8}} {
		lo, hi := win[0], win[1]
		if lo > hi || hi > len(vals) {
			continue
		}
		dst := make([]float64, hi-lo)
		col.UnpackValues(dst, lo, hi)
		for i, got := range dst {
			want := vals[lo+i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: UnpackValues[%d,%d)[%d] = %v, want %v", label, lo, hi, i, got, want)
			}
		}
	}
}

func requireCatLossless(t *testing.T, label string, codes []int32, col CatColumn) {
	t.Helper()
	if col.Len() != len(codes) {
		t.Fatalf("%s: Len = %d, want %d", label, col.Len(), len(codes))
	}
	for i, want := range codes {
		if got := col.Code(i); got != want {
			t.Fatalf("%s: Code(%d) = %d, want %d", label, i, got, want)
		}
	}
	for _, win := range [][2]int{{0, len(codes)}, {2, len(codes)}, {5, 23}, {63, 65}} {
		lo, hi := win[0], win[1]
		if lo > hi || hi > len(codes) {
			continue
		}
		dst := make([]int32, hi-lo)
		col.UnpackCodes(dst, lo, hi)
		for i, got := range dst {
			if want := codes[lo+i]; got != want {
				t.Fatalf("%s: UnpackCodes[%d,%d)[%d] = %d, want %d", label, lo, hi, i, got, want)
			}
		}
	}
}

// TestEncodeMeasRoundTrip covers every measure encoding with shapes chosen
// to land in each regime, plus the deliberate fallbacks.
func TestEncodeMeasRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	mk := func(n int, f func(i int) float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	cases := []struct {
		label    string
		vals     []float64
		encoding string
	}{
		{"raw floats", mk(200, func(int) float64 { return rng.Float64() * 100 }), "raw"},
		{"const", mk(150, func(int) float64 { return 3.25 }), "const"},
		{"const NaN", mk(90, func(int) float64 { return math.NaN() }), "const"},
		{"sequence", mk(130, func(i int) float64 { return float64(10 + 3*i) }), "seq"},
		{"descending sequence", mk(130, func(i int) float64 { return float64(500 - 7*i) }), "seq"},
		{"small ints", mk(300, func(int) float64 { return float64(rng.Intn(40) - 20) }), "int-for-bp6"},
		{"single bit", mk(170, func(i int) float64 { return float64(i%2) * 5 }), "int-for-bp3"},
		{"wide ints fall back", mk(64, func(int) float64 { return float64(rng.Int63()>>8) * 2 }), "raw"},
		{"minus zero falls back", append(mk(100, func(i int) float64 { return float64(i % 4) }), negZero), "raw"},
		{"NaN among ints falls back", append(mk(100, func(i int) float64 { return float64(i % 4) }), math.NaN()), "raw"},
		{"inf falls back", append(mk(80, func(i int) float64 { return float64(i) }), math.Inf(1)), "raw"},
		{"fractional falls back", append(mk(80, func(i int) float64 { return float64(i) }), 0.5), "raw"},
	}
	for _, tc := range cases {
		col := encodeMeas(tc.vals)
		if got := col.Encoding(); got != tc.encoding {
			t.Errorf("%s: encoding %q, want %q", tc.label, got, tc.encoding)
		}
		requireMeasLossless(t, tc.label, tc.vals, col)
	}
}

// TestEncodeMeasRandomProperty hammers encodeMeas with random shapes drawn
// from generators that hit every regime boundary, asserting only the one
// property that matters: the round trip is bit-for-bit lossless.
func TestEncodeMeasRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, 0.1, float64(1 << 62), -float64(1 << 62),
		float64(maxExactSum), float64(maxExactSum + 1),
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		vals := make([]float64, n)
		switch trial % 5 {
		case 0: // random floats with special values sprinkled in
			for i := range vals {
				if rng.Intn(8) == 0 {
					vals[i] = specials[rng.Intn(len(specials))]
				} else {
					vals[i] = rng.NormFloat64() * 1e6
				}
			}
		case 1: // narrow integers
			for i := range vals {
				vals[i] = float64(rng.Intn(1000) - 500)
			}
		case 2: // near-sequences (occasionally broken)
			base, stride := rng.Intn(5000), rng.Intn(20)-10
			for i := range vals {
				vals[i] = float64(base + stride*i)
			}
			if rng.Intn(2) == 0 {
				vals[rng.Intn(n)] += 1
			}
		case 3: // wide integers around the FOR width cliff
			lo := rng.Int63n(1 << 40)
			span := int64(1) << uint(20+rng.Intn(20))
			for i := range vals {
				vals[i] = float64(lo + rng.Int63n(span))
			}
		case 4: // constants with a chance of one outlier
			c := specials[rng.Intn(len(specials))]
			for i := range vals {
				vals[i] = c
			}
			if rng.Intn(2) == 0 {
				vals[rng.Intn(n)] = rng.Float64()
			}
		}
		requireMeasLossless(t, "random", vals, encodeMeas(vals))
	}
}

func TestEncodeCatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dom := range []int{1, 2, 3, 5, 17, 255, 1000, 70000} {
		n := 1 + rng.Intn(500)
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(dom))
		}
		col := encodeCat(codes, dom)
		if dom == 1 {
			if col.Encoding() != "const" {
				t.Fatalf("dom=1: encoding %q, want const", col.Encoding())
			}
		}
		requireCatLossless(t, col.Encoding(), codes, col)
		if eb, rb := col.EncodedBytes(), col.RawBytes(); dom <= 255 && eb >= rb {
			t.Errorf("dom=%d: encoded %d B >= raw %d B — narrow dictionary should compress", dom, eb, rb)
		}
	}
}

// TestEncodedRelationAccounting checks the relation-level aggregates: byte
// totals are the column sums, retained bytes exclude aliased raw measures,
// and the per-column stats cover every column in schema order.
func TestEncodedRelationAccounting(t *testing.T) {
	b := NewBuilder("acct", []string{"region", "kind"}, []string{"count", "score"})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		b.AddRow([]string{
			string(rune('a' + i%7)), string(rune('A' + i%3)),
		}, []float64{float64(i % 50), rng.Float64()})
	}
	rel := b.Build()
	enc := rel.Encoded()
	if enc == nil {
		t.Fatal("Encoded returned nil for a healthy relation")
	}
	stats := enc.ColumnStats()
	if len(stats) != 4 {
		t.Fatalf("ColumnStats has %d entries, want 4", len(stats))
	}
	wantNames := []string{"region", "kind", "count", "score"}
	var raw, encoded int
	for i, s := range stats {
		if s.Name != wantNames[i] {
			t.Errorf("stats[%d].Name = %q, want %q", i, s.Name, wantNames[i])
		}
		raw += s.RawBytes
		encoded += s.EncodedBytes
	}
	if raw != enc.RawBytes() || encoded != enc.EncodedBytes() {
		t.Errorf("totals %d/%d disagree with column sums %d/%d",
			enc.RawBytes(), enc.EncodedBytes(), raw, encoded)
	}
	// score is a raw fallback aliasing the relation's slice: it must not be
	// charged as retained payload, so retained < encoded here.
	if enc.RetainedBytes() >= enc.EncodedBytes() {
		t.Errorf("retained %d >= encoded %d despite an aliased raw measure",
			enc.RetainedBytes(), enc.EncodedBytes())
	}
	if enc.EncodedBytes() >= enc.RawBytes() {
		t.Errorf("encoded %d B >= raw %d B on a compressible relation", enc.EncodedBytes(), enc.RawBytes())
	}
}

func TestEncodedLazyOnceAndCached(t *testing.T) {
	b := NewBuilder("lazy", []string{"a"}, []string{"m"})
	for i := 0; i < 100; i++ {
		b.AddRow([]string{string(rune('a' + i%4))}, []float64{float64(i)})
	}
	rel := b.Build()
	if got := rel.EncodedCached(); got != nil {
		t.Fatalf("EncodedCached = %p before any encode", got)
	}
	first := rel.Encoded()
	if first == nil {
		t.Fatal("Encoded returned nil")
	}
	if again := rel.Encoded(); again != first {
		t.Error("Encoded rebuilt instead of reusing the cached view")
	}
	if cached := rel.EncodedCached(); cached != first {
		t.Error("EncodedCached disagrees with Encoded")
	}
}

// TestRawViewAliasesColumns: the raw-alias view decodes every column bit
// for bit, reads the relation's own slices instead of copies, and is never
// cached as the relation's encoding.
func TestRawViewAliasesColumns(t *testing.T) {
	b := NewBuilder("raw", []string{"a", "b"}, []string{"m"})
	for i := 0; i < 100; i++ {
		b.AddRow([]string{string(rune('a' + i%4)), "x"}, []float64{math.Copysign(float64(i%3), -1)})
	}
	rel := b.Build()
	view := rel.RawView()
	for a := 0; a < rel.NumCatAttrs(); a++ {
		requireCatLossless(t, "raw cat", rel.CatCol(a), view.Cat(a))
		if c := view.Cat(a).(*rawCat); &c.codes[0] != &rel.CatCol(a)[0] {
			t.Errorf("attribute %d: raw-alias view copied the codes", a)
		}
	}
	requireMeasLossless(t, "raw meas", rel.MeasCol(0), view.Meas(0))
	if m := view.Meas(0).(*rawMeas); &m.vals[0] != &rel.MeasCol(0)[0] {
		t.Error("raw-alias view copied the measure")
	}
	if view.RetainedBytes() != 0 {
		t.Errorf("RetainedBytes = %d, want 0", view.RetainedBytes())
	}
	if rel.EncodedCached() != nil {
		t.Error("RawView was cached as the relation's encoding")
	}
}

// TestEncodeAbortFallsBackToNil pins the fault-injection contract: a hook
// at TableEncodeColumn that panics EncodeAbort leaves the relation
// permanently without an encoded view (callers use raw columns), while any
// other panic value propagates to the caller.
func TestEncodeAbortFallsBackToNil(t *testing.T) {
	b := NewBuilder("abort", []string{"a"}, []string{"m"})
	for i := 0; i < 64; i++ {
		b.AddRow([]string{string(rune('a' + i%4))}, []float64{float64(i)})
	}
	rel := b.Build()

	restore := faultinject.Set(faultinject.TableEncodeColumn,
		faultinject.Always(func() { panic(EncodeAbort{Reason: "injected"}) }))
	enc := rel.Encoded()
	restore()
	if enc != nil {
		t.Fatalf("Encoded = %p under an EncodeAbort hook, want nil", enc)
	}
	// The abort is sticky: the sync.Once already ran, so later calls — with
	// no hook armed — still report no encoded view rather than a partial one.
	if rel.Encoded() != nil || rel.EncodedCached() != nil {
		t.Error("aborted encode was retried or left a partial view")
	}

	other := NewBuilder("boom", []string{"a"}, []string{"m"})
	other.AddRow([]string{"x"}, []float64{1})
	rel2 := other.Build()
	restore = faultinject.Set(faultinject.TableEncodeColumn,
		faultinject.Always(func() { panic("not an EncodeAbort") }))
	defer restore()
	defer func() {
		if recover() == nil {
			t.Error("a non-EncodeAbort panic was swallowed by Encoded")
		}
	}()
	rel2.Encoded()
}
