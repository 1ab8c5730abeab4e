package stats

import "math/bits"

// Algorithm 2's discount draws are counter-based (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): draw i of a
// discount is a pure function of the discount's key and i, so no draw
// depends on any other and a table row can be re-derived on its own.
// The hash is SplitMix64's finalizer; a value is mapped to [0, n) by
// Lemire's multiply-high with rejection, so the mapping is unbiased and
// integer-only, and a key yields the same draws on every architecture.

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output function: a bijection on uint64 whose
// outputs over consecutive counters pass BigCrush.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// DrawKey is the key of the discount drawn for one path in one
// measurement interval under a seed. Distinct (seed, interval, path)
// triples get independent draw sequences.
func DrawKey(seed int64, interval, path int) uint64 {
	return mix64(mix64(uint64(seed)+golden*uint64(interval+1)) + golden*uint64(path+1))
}

// below maps a uniform 64-bit x to [0, n) without bias (Lemire,
// "Fast Random Integer Generation in an Interval", 2019). A rejected x
// is re-hashed; rejection has probability below n/2^64.
func below(x, n uint64) uint64 {
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			x = mix64(x)
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// draw keeps n of total items, k of them successes, one at a time:
// draw i picks uniformly among the total-i items left, and it is a
// success when it lands on one of the k-succ successes left. It stops
// after maxSucc successes or maxFail failures and returns the
// successes drawn.
func draw(key uint64, total, k, n, maxSucc, maxFail int) int {
	succ, fail := 0, 0
	for i := 0; i < n; i++ {
		if below(mix64(key+golden*uint64(i+1)), uint64(total-i)) < uint64(k-succ) {
			if succ++; succ == maxSucc {
				break
			}
		} else if fail++; fail == maxFail {
			break
		}
	}
	return succ
}

func checkHypergeometric(total, k, n int) {
	switch {
	case n < 0 || k < 0 || total < 0:
		panic("stats: negative hypergeometric parameter")
	case k > total:
		panic("stats: successes exceed population")
	}
}

// Hypergeometric draws, under key, the number of successes among n
// items sampled without replacement from a population of total items
// of which k are successes. This is Algorithm 2's step of keeping the
// losses among m randomly chosen packets.
//
// The count is symmetric in k and n: the successes among n random items
// are distributed as the random items among k successes. So the draw
// samples the smaller of the two sets — for Algorithm 2 usually the
// lost packets, not the kept ones — and costs min(k, n) draws at most.
func Hypergeometric(key uint64, total, k, n int) int {
	checkHypergeometric(total, k, n)
	switch {
	case n >= total:
		return k
	case k == 0 || n == 0:
		return 0
	case k == total:
		return n
	}
	k, n = max(k, n), min(k, n)
	return draw(key, total, k, n, n, n+1)
}

// AtLeast reports whether Hypergeometric(key, total, k, n) >= c, and
// draws only until that is settled: with n <= k, c successes decide it
// true and n-c+1 failures false (k and n trade places otherwise). Because both read the same draws under the
// same key, the answer is exactly the full draw's, so the early exit
// changes the cost of the estimator and not its distribution. When
// k < c or total-k < n-c+1 the answer needs no draw at all.
func AtLeast(key uint64, total, k, n, c int) bool {
	checkHypergeometric(total, k, n)
	switch {
	case c <= 0:
		return true
	case c > k || c > n:
		return false
	case total-k < n-c+1:
		return true
	}
	k, n = max(k, n), min(k, n)
	return draw(key, total, k, n, c, n-c+1) >= c
}
