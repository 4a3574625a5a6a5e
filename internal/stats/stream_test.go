package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// newPermWorker returns a worker over nx + ny pooled rows with its own
// range tables, as one PermTests call builds them: one range per row of
// the smaller side.
func newPermWorker(nx, ny int, median bool) *permWorker {
	nd := min(nx, ny)
	r := &permRun{n: nx + ny, nd: nd, median: median, ranges: newRanges(nx+ny, nd)}
	return r.newWorker()
}

// checkStream draws at least minDraws Intn draws of block b's stream
// through a worker and checks every permutation against a replay driven
// by rand.New(rand.NewSource(mixSeed(seed, b))).Intn(n−i), which labels
// the smaller side. The pool holds distinct indexes, so equal pools after
// every permutation mean equal draws, draw for draw. With an empty side
// the worker draws nothing and leaves its pool as it is.
func checkStream(t *testing.T, seed int64, b, nx, ny, minDraws int) {
	t.Helper()
	n, nd := nx+ny, min(nx, ny)
	w := newPermWorker(nx, ny, false)
	w.startBlock(seed, b)
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(b))))
	pool := make([]int32, n)
	for i := range pool {
		pool[i] = int32(i)
	}
	if nd == 0 {
		if got, _, _, _, _ := w.nextPerm(nil, nil); len(got) != 0 || !slices.Equal(w.pool, pool) {
			t.Fatalf("seed %d block %d sides %d×%d: drew %d indexes, pool %v", seed, b, nx, ny, len(got), w.pool)
		}
		return
	}
	draws := 0
	for k := 0; draws < minDraws; k++ {
		for i := 0; i < nd; i++ {
			j := i + rng.Intn(n-i)
			pool[i], pool[j] = pool[j], pool[i]
			draws++
		}
		got, _, _, _, _ := w.nextPerm(nil, nil)
		if len(got) != nd {
			t.Fatalf("seed %d block %d sides %d×%d perm %d: %d drawn indexes, want %d", seed, b, nx, ny, k, len(got), nd)
		}
		for i := range pool {
			if w.pool[i] != pool[i] {
				t.Fatalf("seed %d block %d sides %d×%d perm %d index %d: worker %d, stdlib replay %d",
					seed, b, nx, ny, k, i, w.pool[i], pool[i])
			}
		}
	}
}

// TestBlockSeedMatchesStdlib: the in-package seeding fills the ring with
// rand.NewSource(s)'s first rngLen outputs, and one refill yields the
// next rngLen, at the edges of Seed's reduction mod 2^31−1 (0, the value
// it maps 0 to, multiples of the modulus, the int64 extremes) and at
// 2,000 random seeds of both signs.
func TestBlockSeedMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, pmZero, pmMod - 1, pmMod, 2 * pmMod, -pmMod, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		s := rng.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	var ring [rngLen]uint64
	for _, s := range seeds {
		src := rand.NewSource(s).(rand.Source64)
		seedRing(&ring, s)
		for pass := 0; pass < 2; pass++ {
			if pass > 0 {
				refill(&ring)
			}
			for k, got := range ring {
				if want := src.Uint64(); got != want {
					t.Fatalf("seed %d output %d: %#x, stdlib %#x", s, pass*rngLen+k, got, want)
				}
			}
		}
	}
}

// TestPermStreamMatchesStdlib: the worker's in-package stream is the
// stdlib's, over several refills of the recurrence ring, on side shapes
// with power-of-two pools, either side the smaller (down to one row) and
// an empty side Y, which draws nothing.
func TestPermStreamMatchesStdlib(t *testing.T) {
	sides := [][2]int{
		{1, 1}, {1, 7}, {3, 5}, {7, 1}, {16, 16}, {31, 1}, {5, 0},
		{9, 23}, {100, 28}, {63, 1}, {208, 208}, {151, 300},
	}
	for _, sd := range sides {
		for s := 0; s < 40; s++ {
			seed := int64(s)*0x3C6EF372FE94F82B + 17
			for _, b := range []int{0, 3} {
				checkStream(t, seed, b, sd[0], sd[1], 3*rngLen+1)
			}
		}
	}
}

// TestRangeDivMatchesInt31n checks the range reduction against
// (*rand.Rand).Int31n draw for draw, at ranges where Int31n's redraw
// fires on about half (2^30+1) and a quarter (3·2^29+1) of all draws, at
// the largest range 2^31−1, and at small and power-of-two ranges. Pools a
// test can allocate make the redraw branch fire with probability below
// 2^−20, so only this test reaches it.
func TestRangeDivMatchesInt31n(t *testing.T) {
	ranges := []uint32{1, 2, 3, 416, 1 << 20, 1 << 30, 1<<30 + 1, 3<<29 + 1, 1<<31 - 1}
	for _, r := range ranges {
		d := newRangeDiv(r)
		draws := make([]rangeDiv, 3*rngLen)
		for i := range draws {
			draws[i] = d
		}
		js := make([]uint32, len(draws))
		redrawn := 0
		for s := int64(0); s < 10; s++ {
			for _, b := range []int{0, 5} {
				w := newPermWorker(1, 1, false)
				w.startBlock(s, b)
				w.draw(js, draws)
				ref := rand.New(rand.NewSource(mixSeed(s, int64(b))))
				raw := rand.New(rand.NewSource(mixSeed(s, int64(b))))
				for k, got := range js {
					if want := ref.Int31n(int32(r)); int32(got) != want {
						t.Fatalf("r=%d seed %d block %d draw %d: %d, Int31n %d", r, s, b, k, got, want)
					}
					for uint32(raw.Int31()) > d.bound {
						redrawn++
					}
				}
			}
		}
		if (r == 1<<30+1 || r == 3<<29+1) && redrawn < len(draws) {
			t.Errorf("r=%d: %d of %d draws were redrawn, want a large share", r, redrawn, 20*len(draws))
		}
	}
}

// seqSource is a rand.Source replaying fixed outputs.
type seqSource struct {
	out []uint64
	n   int
}

func (s *seqSource) Int63() int64 {
	s.n++
	return int64(s.out[s.n-1] & (1<<63 - 1))
}

func (s *seqSource) Seed(int64) {}

// TestRangeDivEdgeDraws feeds the worker and (*rand.Rand).Int31n the same
// outputs, with the Int31 at and around a range's bound and at the ends
// of its domain, and checks both return the same value after consuming
// the same outputs. Random streams almost never hit the bound itself.
func TestRangeDivEdgeDraws(t *testing.T) {
	for _, r := range []uint32{2, 3, 7, 416, 1 << 30, 1<<30 + 1, 3<<29 + 1, 1<<31 - 1} {
		d := newRangeDiv(r)
		for _, v := range []uint32{0, 1, r - 1, r, d.bound - 1, d.bound, d.bound + 1, 1<<31 - 1} {
			v &= 1<<31 - 1
			for _, high := range []uint64{0, 1 << 63} {
				// v in bits 62..32, noise below and (optionally) above,
				// then an output every range accepts.
				out := []uint64{high | uint64(v)<<32 | 0xDEADBEEF, 5 << 32}
				src := &seqSource{out: out}
				want := rand.New(src).Int31n(int32(r))
				w := newPermWorker(1, 1, false)
				copy(w.ring[:], out)
				js := make([]uint32, 1)
				w.draw(js, []rangeDiv{d})
				if int32(js[0]) != want || w.pos != src.n {
					t.Errorf("r=%d v=%d high=%x: %d after %d outputs, Int31n %d after %d",
						r, v, high, js[0], w.pos, want, src.n)
				}
			}
		}
	}
}

// FuzzPermStream checks the worker's stream against the stdlib replay
// for fuzzer-chosen seeds, blocks and side shapes (up to 511 × 511),
// over at least three refills of the ring. Input bytes: the seed (8,
// little endian), the block (1), nx − 1 and ny (2 each, mod 512).
func FuzzPermStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [13]byte
		copy(buf[:], data)
		seed := int64(binary.LittleEndian.Uint64(buf[0:8]))
		b := int(buf[8])
		nx := 1 + int(binary.LittleEndian.Uint16(buf[9:11])%511)
		ny := int(binary.LittleEndian.Uint16(buf[11:13]) % 512)
		checkStream(t, seed, b, nx, ny, 3*rngLen+1)
	})
}
