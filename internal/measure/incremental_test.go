package measure

import (
	"math"
	"math/rand"
	"testing"

	"neutrality/internal/graph"
	"neutrality/internal/stats"
)

// refPerfs is a plain Algorithm 2 reference for the bitset processor:
// a boolean interval × path matrix filled in one pass over the table,
// each discount a full counter-based hypergeometric draw (no early
// exit) judged by the loss-fraction predicate itself, and Perf as a
// counting loop. It returns Perf for every non-empty pathset over paths
// (bitmask order).
func refPerfs(meas *Measurements, paths []graph.PathID, opts Options) []PathsetPerf {
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
				effLost = stats.Hypergeometric(stats.DrawKey(opts.Seed, t, int(pid)), sent, lost, m)
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

// TestProcessorMatchesReference: NewProcessor — early-exit draws, the
// integer loss threshold and bitsets — reproduces the boolean-matrix,
// full-draw formulation of Algorithm 2 bit for bit.
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
		opts.LossThreshold = []float64{0.01, 0.02, 0.05}[trial%3]
		samePerfs(t, "batch", NewProcessor(meas, paths, opts), refPerfs(meas, paths, opts))
	}
}

// TestCongestedAtMatchesPredicate: c = congestedAt(threshold, m) splits
// loss counts exactly where the loss-fraction predicate does — l < c
// if and only if float64(l)/float64(m) < threshold — so the integer
// early exit decides what the float comparison would.
func TestCongestedAtMatchesPredicate(t *testing.T) {
	thresholds := []float64{0.01, 0.02, 0.05, 0.1, 1.0 / 3, 0.07, 0.29, 0.57, 1, 1.5, 0, -0.1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}
	for _, th := range thresholds {
		for m := 1; m <= 700; m++ {
			c := congestedAt(th, m)
			for l := 0; l <= m; l++ {
				if got, want := l < c, float64(l)/float64(m) < th; got != want {
					t.Fatalf("threshold %v m %d: c = %d, but loss %d below threshold is %v", th, m, c, l, want)
				}
			}
		}
	}
}

// TestIncrementalMatchesBatch is the property the streaming service's
// byte-identity rests on: after any sequence of table edits, Update
// from the lowest edited row leaves the processor byte-identical —
// every pathset's Perf — to a fresh NewProcessor over the edited table.
// Edits cover late records into old intervals, edits exactly on and
// beside bitset word boundaries (where Perf's cached counts split),
// growth (EnsureIntervals) with idle rows, shrinking, and
// Normalize=false.
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
			case k == 1 && T > 64: // on and beside a word boundary
				b := 64 * (1 + rng.Intn(T/64))
				for _, r := range []int{b - 1, b, b + 1} {
					if r < T {
						edit(r)
					}
				}
			case k == 2 && T > 64: // shrink (rows dropped from the end)
				n := T - 1 - rng.Intn(64)
				meas.Sent, meas.Lost = meas.Sent[:n], meas.Lost[:n]
			default: // growth: new rows, some left idle
				meas.EnsureIntervals(T+1+rng.Intn(512), paths)
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
