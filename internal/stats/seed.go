package stats

import "math/rand"

// Block seeding. A block's stream is rand.NewSource(s)'s, where s is the
// block's mixed seed. The stdlib's Seed walks a chain of 1,841
// Park–Miller steps x ← 48271·x mod (2^31−1), each through a division,
// to build its 607-word register. Step k of the chain is
// x_k = s′·48271^k mod (2^31−1), so seedRing computes each word from
// precomputed powers instead, with no chain and no division, and one pass
// of the lagged-Fibonacci recurrence turns the register into the
// stream's first 607 outputs.

const (
	pmMod  = 1<<31 - 1 // Park–Miller modulus of math/rand's seeding
	pmMul  = 48271     // its multiplier
	pmZero = 89482311  // the seed math/rand uses when s ≡ 0
)

var (
	// seedPow[k] holds, for ring slot k, the powers 48271^e mod (2^31−1)
	// of the three chain steps that make up the slot's register word.
	seedPow [rngLen][3]uint64
	// seedCooked[k] is the constant the stdlib XORs into ring slot k's
	// register word. It is derived from rand.NewSource(1)'s output rather
	// than copied from the stdlib.
	seedCooked [rngLen]uint64
)

// The stdlib's register word j is the XOR of chain steps 21+3j, 22+3j
// and 23+3j (shifted left by 40, 20 and 0) with its constant j. Its
// first output adds words 333 and 606, and each later one the words
// before them, so ring slot k (the output 607 steps before output k)
// holds word (333−k) mod 607.
func init() {
	pw := uint64(1)
	for e := 1; e <= 20+3*rngLen; e++ {
		pw = pw * pmMul % pmMod
		if e > 20 {
			j := (e - 21) / 3
			seedPow[ringSlot(j)][(e-21)%3] = pw
		}
	}
	// Seed 1's first outputs, undone by the recurrence, are its ring
	// before the first refill; XOR out seed 1's chain part (s′ = 1, so
	// x_e is the power itself) to leave the constants.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		if k >= rngTap {
			seedCooked[k] = out[k] - out[k-rngTap]
		} else {
			seedCooked[k] = out[k] - seedCooked[k+rngLen-rngTap]
		}
	}
	for k := range seedCooked {
		p := &seedPow[k]
		seedCooked[k] ^= p[0]<<40 ^ p[1]<<20 ^ p[2]
	}
}

// ringSlot returns the ring slot of register word j.
func ringSlot(j int) int {
	return (rngLen - rngTap - 1 - j + rngLen) % rngLen
}

// seedRing sets ring to the first rngLen outputs of rand.NewSource(s).
func seedRing(ring *[rngLen]uint64, s int64) {
	s %= pmMod
	if s < 0 {
		s += pmMod
	}
	if s == 0 {
		s = pmZero
	}
	x := uint64(s)
	for k := range ring {
		p := &seedPow[k]
		ring[k] = pmReduce(x*p[0])<<40 ^ pmReduce(x*p[1])<<20 ^ pmReduce(x*p[2]) ^ seedCooked[k]
	}
	refill(ring)
}

// pmReduce returns v mod (2^31−1) for v < 2^62 by folding the bits above
// 31 onto the low ones, as 2^31 ≡ 1.
func pmReduce(v uint64) uint64 {
	v = v&pmMod + v>>31
	v = v&pmMod + v>>31
	if v >= pmMod {
		v -= pmMod
	}
	return v
}
