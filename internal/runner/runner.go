// Package runner is the parallel experiment engine: it fans independent
// experiment units (a Figure 8 row, an ablation cell, a Table 2
// configuration) out across a bounded worker pool and collects their
// results in input order.
//
// The engine makes three guarantees that matter for reproducing the
// paper's evaluation:
//
//   - Determinism. A unit's result depends only on its index (callers
//     derive per-unit seeds from (baseSeed, unitIndex), e.g. via Seed),
//     never on scheduling, worker count, or completion order. Sweep
//     output is bit-identical between -workers=1 and -workers=N.
//   - Ordered collection. Results come back indexed by unit, so printed
//     tables keep the paper's row order no matter which unit finished
//     first.
//   - Containment. A panicking unit is converted into a per-unit
//     *PanicError instead of killing the whole sweep, and cancelling the
//     context stops dispatching new units. In-flight units receive the
//     cancelled context and abort as soon as they observe it (the
//     emulation layer polls it between event batches); units that
//     ignore the context simply finish.
//
// Stream is the engine's one dispatcher: it emits each unit's result
// in index order as soon as its predecessors have been emitted, holding
// at most a bounded reorder window of completed units in memory, which
// suits grids too large to hold. Map runs on it with a window of n and
// materializes one result per unit, which is right for figure-sized
// batches.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultWorkers is the pool width used when the caller passes
// workers <= 0: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Seed derives a per-unit seed from a base seed and a unit index using a
// splitmix64 finalizer, so that nearby indices yield statistically
// independent streams. The derivation is a pure function of
// (base, index): the same unit always gets the same seed regardless of
// worker count or scheduling.
func Seed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// PanicError wraps a panic recovered from a unit.
type PanicError struct {
	// Index is the unit that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: unit %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// result is one unit's outcome inside Stream.
type result[T any] struct {
	Index int
	Value T
	Err   error
}

// runUnit executes one unit, converting a panic into a *PanicError.
func runUnit[T any](ctx context.Context, i int, fn func(ctx context.Context, index int) (T, error)) (r result[T]) {
	r.Index = i
	defer func() {
		if v := recover(); v != nil {
			r.Err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	r.Value, r.Err = fn(ctx, i)
	return r
}

// Map runs units 0..n-1 across a bounded worker pool (workers <= 0
// means DefaultWorkers) and returns their values in unit order. It is
// Stream with a window of n. It fails fast: the first unit error
// cancels dispatch of the remaining units (in-flight units still
// finish), and Map reports the lowest-indexed unit error — a
// deterministic choice — wrapped with its unit index, ahead of any
// cancellation error. On success the output is a pure function of fn,
// bit-identical for every worker count.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	out := make([]T, n)
	var unitErr, cancelErr error
	streamErr := Stream(mctx, workers, 0, n, n,
		func(c context.Context, i int) (T, error) {
			v, err := fn(c, i)
			if err != nil {
				cancel(fmt.Errorf("runner: unit %d: %w", i, err))
			}
			return v, err
		},
		func(i int, v T, err error) error {
			out[i] = v
			if err == nil {
				return nil
			}
			if isContextErr(err) {
				if cancelErr == nil {
					cancelErr = fmt.Errorf("runner: unit %d: %w", i, err)
				}
			} else if unitErr == nil {
				unitErr = fmt.Errorf("runner: unit %d: %w", i, err)
			}
			return nil
		})
	switch {
	case unitErr != nil:
		return nil, unitErr
	case cancelErr != nil:
		return nil, cancelErr
	case streamErr != nil:
		// Cancelled before every unit was dispatched.
		return nil, streamErr
	}
	return out, nil
}

// isContextErr reports whether err is (or wraps) a context
// cancellation/deadline error, as opposed to a genuine unit failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stream runs units start..n-1 across a bounded worker pool and calls
// emit(i, value, unitErr) for consecutive indices i = start, start+1, …
// — strictly in order, on the caller's goroutine, as soon as unit i and
// all its predecessors have finished. Stream never materializes the
// result set: at most window completed units wait in
// the reorder buffer, and the dispatcher stalls rather than run more
// than window units ahead of the emission frontier, so memory is
// O(window), not O(n).
//
// A unit failure or panic does not stop the stream; it is delivered to
// emit as that unit's error (panics as *PanicError) and the caller
// decides whether to continue. emit returning a non-nil error stops
// the stream: no further units are dispatched, in-flight units are
// cancelled, nothing more is emitted, and Stream returns the emit
// error. Cancelling ctx stops dispatch and propagates to in-flight
// units; those units' results (typically carrying the context error)
// are still delivered to emit in order, so a checkpointing caller
// keeps every completed record and sees exactly where the run stopped.
// Exactly one of the following holds on return: every unit in
// [start, n) was emitted and the result is nil, or the stream stopped
// early and the result is the first emit error or the context cause.
//
// Determinism: emission order is the unit order, so a caller that
// writes records as they are emitted produces byte-identical output
// for every workers setting.
func Stream[T any](ctx context.Context, workers, start, n, window int, fn func(ctx context.Context, index int) (T, error), emit func(index int, value T, err error) error) error {
	if start < 0 || start > n {
		return fmt.Errorf("runner: stream start %d out of range [0,%d]", start, n)
	}
	if start == n {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n-start {
		workers = n - start
	}
	if window < workers {
		// The window must at least cover the in-flight set or the
		// dispatcher would deadlock waiting for tokens held by results
		// that cannot complete.
		window = workers
	}

	// sctx cancels dispatch AND in-flight units when emit fails; plain
	// ctx cancellation flows through it too.
	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	idx := make(chan int)
	done := make(chan result[T], window)
	// tokens implements the reorder-window backpressure: the dispatcher
	// takes one per dispatched unit, the emitter returns one per
	// emitted unit.
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				done <- runUnit(sctx, i, fn)
			}
		}()
	}

	// The dispatcher feeds indices as window tokens free up; it closes
	// idx when the range is exhausted or the stream is cancelled, then
	// the workers drain and close done.
	go func() {
	feed:
		for i := start; i < n; i++ {
			if sctx.Err() != nil {
				break feed
			}
			select {
			case <-tokens:
			case <-sctx.Done():
				break feed
			}
			select {
			case idx <- i:
			case <-sctx.Done():
				break feed
			}
		}
		close(idx)
		wg.Wait()
		close(done)
	}()

	// The emitter (this goroutine) reorders completions and advances
	// the frontier. Buffered results beyond the frontier at shutdown
	// are discarded — they are exactly the units a resumed run must
	// redo, because emission is what commits a unit.
	pending := make(map[int]result[T], window)
	next := start
	var emitErr error
	for r := range done {
		if emitErr != nil {
			continue // drain
		}
		pending[r.Index] = r
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := emit(r.Index, r.Value, r.Err); err != nil {
				emitErr = err
				cancel(fmt.Errorf("runner: emit at unit %d: %w", r.Index, err))
				break
			}
			next++
			tokens <- struct{}{}
		}
	}
	switch {
	case emitErr != nil:
		return emitErr
	case next < n:
		return fmt.Errorf("runner: stream stopped at unit %d of %d: %w", next, n, context.Cause(sctx))
	}
	return nil
}
