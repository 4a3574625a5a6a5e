package tap

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomUniformInstance(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(inst, 10, 0.8)
	}
}

func BenchmarkGreedyPlus(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomUniformInstance(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyPlus(inst, 10, 0.8)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomUniformInstance(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(inst, 10)
	}
}

func BenchmarkExactSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomUniformInstance(30, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveExact(inst, 8, 0.8, ExactOptions{Timeout: 10 * time.Second})
	}
}

func BenchmarkHeldKarp12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomInstance(20, rng)
	subset := rng.Perm(20)[:12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heldKarpPath(inst, subset)
	}
}
