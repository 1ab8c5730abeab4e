package sweep

import (
	"context"
	"errors"
	"io/fs"
	"testing"
	"time"

	"neutrality/internal/errkind"
)

// TestCellTimeoutWatchdog: a per-cell deadline that cannot be met
// surfaces as a named CellTimeoutError tagged resumable-incomplete,
// the checkpoint survives, and a resume without the timeout finishes
// the sweep byte-identically to an unconstrained run.
func TestCellTimeoutWatchdog(t *testing.T) {
	g := microGrid()
	want, err := Run(context.Background(), g, Options{Workers: 2, Shards: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir() + "/sweep"
	_, err = Run(context.Background(), g, Options{
		Workers: 2, Shards: 2, BaseSeed: 7, Dir: dir, CellTimeout: time.Nanosecond,
	})
	if err == nil {
		t.Fatal("1ns cell timeout did not fire")
	}
	var cte *CellTimeoutError
	if !errors.As(err, &cte) {
		t.Fatalf("want CellTimeoutError, got %v", err)
	}
	if cte.Timeout != time.Nanosecond || cte.Cell < 0 || cte.Cell >= g.Cells() {
		t.Fatalf("timeout error detail: %+v", cte)
	}
	if !errors.Is(err, errkind.Incomplete) {
		t.Fatalf("cell timeout must be resumable-incomplete, got %v", err)
	}
	if errors.Is(err, errkind.Validation) {
		t.Fatal("cell timeout wrongly tagged as validation failure")
	}

	// The run's own context cancellation must NOT masquerade as a cell
	// timeout — it is the caller's cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, g, Options{
		Workers: 2, Shards: 2, BaseSeed: 7, Dir: t.TempDir() + "/c", Resume: true, CellTimeout: time.Minute,
	})
	if err == nil || errors.As(err, &cte) {
		t.Fatalf("caller cancellation misreported: %v", err)
	}

	// Resume with a generous timeout completes and matches the
	// unconstrained run byte for byte (Summary is the byte proxy).
	res, err := Run(context.Background(), g, Options{
		Workers: 2, Shards: 2, BaseSeed: 7, Dir: dir, Resume: true, CellTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Agg.Summary(); got != want.Agg.Summary() {
		t.Fatalf("post-timeout resume diverged:\n%s\nvs\n%s", got, want.Agg.Summary())
	}
}

// TestErrorKinds: the sentinel kinds survive wrapping and stay
// mutually exclusive.
func TestErrorKinds(t *testing.T) {
	inc := errkind.Errorf(errkind.Incomplete, "still going: %w", errors.New("inner"))
	if !errors.Is(inc, errkind.Incomplete) || errors.Is(inc, errkind.Validation) {
		t.Fatalf("incomplete kind mis-tagged: %v", inc)
	}
	val := errkind.Errorf(errkind.Validation, "bad spec")
	if !errors.Is(val, errkind.Validation) || errors.Is(val, errkind.Incomplete) {
		t.Fatalf("validation kind mis-tagged: %v", val)
	}
	// The message chain still unwraps.
	if !errors.Is(inc, errkind.Incomplete) {
		t.Fatal("wrap lost")
	}
	if inc.Error() != "still going: inner" {
		t.Fatalf("message mangled: %q", inc.Error())
	}
}

// TestResumable: Resumable reports a checkpoint's frontier under the
// identity it was recorded with (a partial one included), and a
// directory holding no manifest as fs.ErrNotExist — the fresh
// directory Run starts from.
func TestResumable(t *testing.T) {
	g := microGrid()
	dir := t.TempDir() + "/s"
	if _, err := Run(context.Background(), g, Options{Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	id := Identity{Shards: 3, BaseSeed: 7, Range: g.FullRange()}
	if done, err := Resumable(g, dir, id); err != nil || done != g.Cells() {
		t.Fatalf("finished checkpoint: %d cells, err %v", done, err)
	}
	cutClaim(t, dir, 5)
	if done, err := Resumable(g, dir, id); err != nil || done != 5 {
		t.Fatalf("partial checkpoint: %d cells, err %v", done, err)
	}
	if _, err := Resumable(g, t.TempDir(), id); !errors.Is(err, fs.ErrNotExist) || errors.Is(err, errkind.Validation) {
		t.Fatalf("missing manifest: %v", err)
	}
}
