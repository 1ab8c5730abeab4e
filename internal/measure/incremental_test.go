package measure

import (
	"math"
	"math/rand"
	"testing"

	"neutrality/internal/graph"
)

// refPerfs is the Algorithm 2 reference the bitset processor replaced:
// a boolean interval × path matrix filled in one pass over the table
// with discounts drawn from math/rand, and Perf as a counting loop. It
// returns Perf for every non-empty pathset over paths (bitmask order).
func refPerfs(meas *Measurements, paths []graph.PathID, opts Options) []PathsetPerf {
	rng := rand.New(rand.NewSource(opts.Seed))
	hg := func(total, k, n int) int {
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
			if rng.Intn(total-i) < k-succ {
				succ++
				if succ == k {
					break
				}
			}
		}
		return succ
	}
	T := meas.Intervals()
	cf := make([][]bool, T)
	usable := make([]bool, T)
	for t := 0; t < T; t++ {
		cf[t] = make([]bool, len(paths))
		m := math.MaxInt
		for _, pid := range paths {
			m = min(m, meas.Sent[t][pid])
		}
		if m <= 0 || m == math.MaxInt {
			continue
		}
		usable[t] = true
		for i, pid := range paths {
			sent, lost := meas.Sent[t][pid], meas.Lost[t][pid]
			effSent, effLost := sent, lost
			if opts.Normalize && sent > m {
				effLost = hg(sent, lost, m)
				effSent = m
			}
			cf[t][i] = float64(effLost)/float64(effSent) < opts.LossThreshold
		}
	}
	var out []PathsetPerf
	for mask := 1; mask < 1<<len(paths); mask++ {
		var ps graph.Pathset
		for i := range paths {
			if mask&(1<<i) != 0 {
				ps = append(ps, paths[i])
			}
		}
		good, total := 0, 0
		for t := range cf {
			if !usable[t] {
				continue
			}
			total++
			all := true
			for i := range paths {
				if mask&(1<<i) != 0 && !cf[t][i] {
					all = false
				}
			}
			if all {
				good++
			}
		}
		pp := PathsetPerf{Pathset: ps, Intervals: total, Prob: 1}
		if total > 0 {
			pp.Prob = float64(good) / float64(total)
			pp.CongestionProb = 1 - pp.Prob
			ph := (float64(good) + opts.Smoothing) / (float64(total) + opts.Smoothing)
			if ph <= 0 {
				pp.Y = math.Inf(1)
			} else {
				pp.Y = -math.Log(ph)
			}
		}
		out = append(out, pp)
	}
	return out
}

// samePerfs reports the first pathset whose performance differs in any
// bit between p and want.
func samePerfs(t *testing.T, what string, p *Processor, want []PathsetPerf) {
	t.Helper()
	for _, w := range want {
		got := p.Perf(w.Pathset)
		if got.Intervals != w.Intervals ||
			math.Float64bits(got.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(got.CongestionProb) != math.Float64bits(w.CongestionProb) ||
			math.Float64bits(got.Y) != math.Float64bits(w.Y) {
			t.Fatalf("%s: pathset %v: got %+v, want %+v", what, w.Pathset, got, w)
		}
	}
}

// randomRow fills interval t of meas: per path a packet count that is
// sometimes zero (an idle path makes the interval unusable) and a loss
// count around the 1% threshold.
func randomRow(rng *rand.Rand, meas *Measurements, t int) {
	for p := range meas.Sent[t] {
		sent := 0
		if rng.Intn(12) != 0 {
			sent = 1 + rng.Intn(400)
		}
		meas.Sent[t][p] = sent
		meas.Lost[t][p] = 0
		if sent > 0 && rng.Intn(3) == 0 {
			meas.Lost[t][p] = rng.Intn(sent/20 + 2)
			meas.Lost[t][p] = min(meas.Lost[t][p], sent)
		}
	}
}

// TestProcessorMatchesReference: NewProcessor reproduces the boolean-
// matrix, math/rand formulation of Algorithm 2 bit for bit.
func TestProcessorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		meas := NewMeasurements(rng.Intn(700), 5)
		for r := range meas.Sent {
			randomRow(rng, meas, r)
		}
		paths := []graph.PathID{0, 2, 3, 4}[:2+rng.Intn(3)]
		opts := DefaultOptions()
		opts.Seed = rng.Int63() - rng.Int63()
		opts.Normalize = trial%4 != 3
		samePerfs(t, "batch", NewProcessor(meas, paths, opts), refPerfs(meas, paths, opts))
	}
}

// TestIncrementalMatchesBatch is the property the streaming service's
// byte-identity rests on: after any sequence of table edits, Update
// from the lowest edited row leaves the processor byte-identical —
// every pathset's Perf — to a fresh NewProcessor over the edited table.
// Edits cover late records into old intervals, edits exactly on and
// beside sampler checkpoint boundaries, growth (EnsureIntervals) with
// idle rows, shrinking, and Normalize=false.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const paths = 4
	group := []graph.PathID{0, 1, 3}
	for trial := 0; trial < 8; trial++ {
		opts := DefaultOptions()
		opts.Seed = int64(trial) * 7919
		opts.Normalize = trial%4 != 3
		meas := NewMeasurements(rng.Intn(300), paths)
		for r := range meas.Sent {
			randomRow(rng, meas, r)
		}
		inc := NewProcessor(meas, group, opts)
		for step := 0; step < 14; step++ {
			T := meas.Intervals()
			from := math.MaxInt
			edit := func(r int) {
				randomRow(rng, meas, r)
				from = min(from, r)
			}
			switch k := rng.Intn(6); {
			case k == 0 && T > 0: // late records into old intervals
				for n := 1 + rng.Intn(4); n > 0; n-- {
					edit(rng.Intn(T))
				}
			case k == 1 && T > ckptRows: // on and beside a checkpoint boundary
				b := ckptRows * (1 + rng.Intn(T/ckptRows))
				for _, r := range []int{b - 1, b, b + 1} {
					if r < T {
						edit(r)
					}
				}
			case k == 2 && T > 64: // shrink (rows dropped from the end)
				n := T - 1 - rng.Intn(64)
				meas.Sent, meas.Lost = meas.Sent[:n], meas.Lost[:n]
			default: // growth: new rows, some left idle
				meas.EnsureIntervals(T+1+rng.Intn(2*ckptRows), paths)
				for r := T; r < meas.Intervals(); r++ {
					if rng.Intn(5) != 0 {
						randomRow(rng, meas, r)
					}
				}
				if rng.Intn(2) == 0 && T > 0 {
					edit(T - 1)
				}
			}
			inc.Update(meas, from)
			batch := NewProcessor(meas, group, opts)
			want := refPerfs(meas, group, opts)
			samePerfs(t, "batch", batch, want)
			samePerfs(t, "incremental", inc, want)
			if got, want := inc.UsableIntervals(), batch.UsableIntervals(); got != want {
				t.Fatalf("trial %d step %d: usable %d, batch %d", trial, step, got, want)
			}
		}
	}
}
