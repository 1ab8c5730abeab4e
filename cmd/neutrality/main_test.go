package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutrality/internal/grid"
	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// run executes the CLI in-process with the given arguments and returns
// what it wrote to stdout. A command that fails exits the test binary.
func run(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedArgs, savedStdout := os.Args, os.Stdout
	os.Args, os.Stdout = append([]string{"neutrality"}, args...), out
	defer func() { os.Args, os.Stdout = savedArgs, savedStdout }()
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCommands runs the paper-model commands and a sweep + verify
// round trip over a two-cell grid, checking the lines each prints.
func TestCommands(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "grid.json")
	g := grid.New("two-cell", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Nums(0.2, 0.4)...)
	if err := os.WriteFile(spec, g.MarshalCanonical(), 0o644); err != nil {
		t.Fatal(err)
	}
	sweepDir := filepath.Join(dir, "sweep")

	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"topo", "-net", "a"}, []string{"differentiating links in the standard scenario: l5\n"}},
		{[]string{"theory"}, []string{
			"Theorem 1: violation observable; witnesses:\n",
			"  <l1>                 pairs=3  identifiable\n",
		}},
		{[]string{"infer", "-intervals", "2000"}, []string{
			"  NON-NEUTRAL <l1,l2>",
			"vs ground truth: FN=0% FP=0% granularity=2.00\n",
		}},
		{[]string{"sweep", "-grid", spec, "-out", sweepDir, "-quiet"}, []string{
			"sweep two-cell: 2 cells aggregated\n",
			"  non-neutral verdicts: 2/2 (100.0%)\n",
		}},
		{[]string{"verify", "-grid", spec, sweepDir}, []string{
			sweepDir + ": clean (2 records in 1 shards, frontier 2/2)\n",
		}},
	} {
		got := run(t, tc.args...)
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("neutrality %s: output lacks %q:\n%s", strings.Join(tc.args, " "), w, got)
			}
		}
	}
}

// TestClassify holds the documented exit codes: validation failures
// (artifact corruption and malformed measurements included) exit 3,
// resumable-incomplete conditions exit 4, anything else exits 1.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{sweep.ErrValidation, exitValidation},
		{fmt.Errorf("spec mismatch: %w", sweep.ErrValidation), exitValidation},
		{fmt.Errorf("bad shard: %w", sweep.ErrCorrupt), exitValidation},
		{fmt.Errorf("bad csv: %w", measure.ErrValidation), exitValidation},
		{fmt.Errorf("unfinished: %w", sweep.ErrIncomplete), exitIncomplete},
		{&sweep.CellTimeoutError{Cell: 3}, exitIncomplete},
		{fmt.Errorf("sweep: cell 3: %w", &sweep.CellTimeoutError{Cell: 3}), exitIncomplete},
		{errors.New("disk full"), exitFatal},
		{context.Canceled, exitFatal},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
