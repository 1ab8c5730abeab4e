package stats

import (
	"math"
	"math/rand"
	"testing"
)

// samplerSeeds covers the seed domain's corners: zero (remapped by the
// seeding), negatives, values past 2^31-1 (reduced mod 2^31-1) and the
// int64 extremes.
var samplerSeeds = []int64{0, 1, -1, 7, 42, -987654321, int32max, -int32max, 1 << 31, 1 << 40, math.MaxInt64, math.MinInt64}

// samplerNs exercises every Intn branch: 1, powers of two (masked),
// small non-powers, values near 2^31 whose rejection bound is far below
// 2^31-1 (so the rejection loop runs on about half the draws), 2^31-1
// itself, and past it (the 63-bit path).
var samplerNs = []int{1, 2, 3, 7, 64, 100, 450, 1 << 20, 1<<30 + 1, 1<<31 - 2, int32max, 1 << 31, 1<<31 + 1, 1<<40 + 3, math.MaxInt64}

// TestSamplerMatchesMathRand: the replica yields exactly the values of
// rand.New(rand.NewSource(seed)), method for method. Algorithm 2's
// outputs are byte-identical to the math/rand-based code they replaced
// only as long as this holds.
func TestSamplerMatchesMathRand(t *testing.T) {
	for _, seed := range samplerSeeds {
		s, r := NewSampler(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if a, b := s.Int63(), r.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, a, b)
			}
			if a, b := s.Uint64(), r.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, a, b)
			}
			if a, b := s.Int31(), r.Int31(); a != b {
				t.Fatalf("seed %d draw %d: Int31 %d, math/rand %d", seed, i, a, b)
			}
		}
		for _, n := range samplerNs {
			for i := 0; i < 500; i++ {
				if a, b := s.Intn(n), r.Intn(n); a != b {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand %d", seed, n, i, a, b)
				}
			}
		}
	}
}

// refHypergeometric is the sequential draw written against math/rand,
// the reference the Sampler's Hypergeometric must reproduce.
func refHypergeometric(r *rand.Rand, total, k, n int) int {
	switch {
	case n >= total:
		return k
	case k == 0 || n == 0:
		return 0
	case k == total:
		return n
	}
	succ := 0
	for i := 0; i < n; i++ {
		if r.Intn(total-i) < k-succ {
			succ++
			if succ == k {
				break
			}
		}
	}
	return succ
}

// TestSamplerHypergeometricMatchesMathRand: the discount draw consumes
// and returns exactly what the same loop over math/rand does, for
// Algorithm 2-sized populations and for populations near 2^31 (where
// Intn's rejection branch runs).
func TestSamplerHypergeometricMatchesMathRand(t *testing.T) {
	for _, seed := range samplerSeeds {
		s, r := NewSampler(seed), rand.New(rand.NewSource(seed))
		params := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 3000; i++ {
			total := 1 + params.Intn(1200)
			if i%10 == 0 {
				total = 1<<31 - 1 - params.Intn(1<<20)
			}
			k := params.Intn(total + 1)
			n := params.Intn(total + 1)
			if total > 1200 {
				n = params.Intn(64) // keep the near-2^31 draws short
			}
			if a, b := s.Hypergeometric(total, k, n), refHypergeometric(r, total, k, n); a != b {
				t.Fatalf("seed %d: HG(%d,%d,%d) = %d, math/rand %d", seed, total, k, n, a, b)
			}
		}
		if a, b := s.Int63(), r.Int63(); a != b {
			t.Fatalf("seed %d: streams diverged after the draws", seed)
		}
	}
}

// TestSamplerCopyIsCheckpoint: a value copy replays the stream from the
// point it was taken, independently of the original.
func TestSamplerCopyIsCheckpoint(t *testing.T) {
	s := NewSampler(11)
	for i := 0; i < 1000; i++ {
		s.Intn(450)
	}
	ck := s
	want := make([]int, 700)
	for i := range want {
		want[i] = s.Hypergeometric(500, 40, 450)
	}
	for i := range want {
		if got := ck.Hypergeometric(500, 40, 450); got != want[i] {
			t.Fatalf("checkpoint replay diverged at draw %d: %d vs %d", i, got, want[i])
		}
	}
}
