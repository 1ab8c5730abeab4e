package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapOrderedCollection: results come back in unit order even when
// units complete out of order.
func TestMapOrderedCollection(t *testing.T) {
	const n = 64
	out, err := Map(context.Background(), 8, n, func(_ context.Context, i int) (int, error) {
		// Later units finish first: burn less work for higher indices.
		acc := 0
		for k := 0; k < (n-i)*1000; k++ {
			acc += k
		}
		_ = acc
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts: a sweep whose units derive
// their randomness from (baseSeed, unitIndex) produces bit-identical
// results for every pool width.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 40
	sweep := func(workers int) []float64 {
		out, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (float64, error) {
			rng := rand.New(rand.NewSource(Seed(17, i)))
			sum := 0.0
			for k := 0; k < 1000; k++ {
				sum += rng.Float64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := sweep(1)
	for _, w := range []int{2, DefaultWorkers(), 0} {
		got := sweep(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: unit %d diverged: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestMapFailFast: with a single worker, an early unit error stops the
// sweep before later units run, and the error names the failing unit.
func TestMapFailFast(t *testing.T) {
	var executed atomic.Int32
	boom := errors.New("boom")
	out, err := Map(context.Background(), 1, 100, func(_ context.Context, i int) (int, error) {
		executed.Add(1)
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("expected nil output, got %v", out)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the unit error", err)
	}
	if !strings.Contains(err.Error(), "unit 2") {
		t.Fatalf("error %q does not name unit 2", err)
	}
	// Unit 3 may or may not have been handed to the worker before the
	// feeder observed the cancellation; anything beyond that must not run.
	if got := executed.Load(); got < 3 || got > 4 {
		t.Fatalf("executed %d units, want 3 or 4 (fail-fast)", got)
	}
}

// TestMapReportsLowestIndexedError: with several failing units, Map
// deterministically reports the lowest-indexed one.
func TestMapReportsLowestIndexedError(t *testing.T) {
	_, err := Map(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 1") {
		t.Fatalf("err = %v, want lowest-indexed failure (unit 1)", err)
	}
}

// TestMapCancellationMidSweep: cancelling the context stops dispatching
// new units; Map reports the cancellation.
func TestMapCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	_, err := Map(ctx, 1, 100, func(_ context.Context, i int) (int, error) {
		executed.Add(1)
		if i == 4 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got < 5 || got > 6 {
		// Unit 5 may or may not have been handed to the worker before the
		// feeder observed the cancellation.
		t.Fatalf("executed %d units, want 5 or 6", got)
	}
}

// TestMapPanicBecomesError: a panicking unit surfaces as a *PanicError,
// not a crash.
func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(context.Background(), 2, 10, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("unit exploded")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "unit exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
}

// TestMapCancelledContext: with an already-cancelled context, no unit
// runs and Map reports the cancellation.
func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int32
	out, err := Map(ctx, 4, 10, func(_ context.Context, i int) (int, error) {
		executed.Add(1)
		return i, nil
	})
	if got := executed.Load(); got != 0 {
		t.Fatalf("executed %d units on a dead context", got)
	}
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("out=%v err=%v, want nil and context.Canceled", out, err)
	}
}

// TestMapEmpty: n = 0 is a no-op.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("unit ran")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestSeedDerivation: Seed is a stable pure function of (base, index)
// with no collisions across a sweep-sized range.
func TestSeedDerivation(t *testing.T) {
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 1000; i++ {
			s := Seed(base, i)
			if s != Seed(base, i) {
				t.Fatalf("Seed(%d,%d) unstable", base, i)
			}
			key := fmt.Sprintf("%d/%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
