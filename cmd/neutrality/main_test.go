package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neutrality/internal/fleet"
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

// TestCommands runs the paper-model commands (a short topology-B
// emulation among them) and a sweep + verify round trip over a
// two-cell grid, checking the lines each prints.
func TestCommands(t *testing.T) {
	dir := t.TempDir()
	_, spec := twoCellGrid(t, dir)
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
		{[]string{"emulate", "-net", "b", "-duration", "10", "-scale", "0.05"}, []string{
			"per-path congestion probability:\n",
			"vs ground truth:",
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

// twoCellGrid writes a two-cell grid spec under dir.
func twoCellGrid(t *testing.T, dir string) (*grid.Grid, string) {
	t.Helper()
	spec := filepath.Join(dir, "grid.json")
	g := grid.New("two-cell", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Nums(0.2, 0.4)...)
	if err := os.WriteFile(spec, g.MarshalCanonical(), 0o644); err != nil {
		t.Fatal(err)
	}
	return g, spec
}

// lateAcquirer is a worker transport whose every Acquire after its
// first completion waits delay first, so `fleet serve` commits before
// the worker asks for more work.
type lateAcquirer struct {
	*fleet.Client
	delay     time.Duration
	completed atomic.Bool
}

func (l *lateAcquirer) Acquire(ctx context.Context, worker string) (*fleet.Assignment, error) {
	if l.completed.Load() {
		time.Sleep(l.delay)
	}
	return l.Client.Acquire(ctx, worker)
}

func (l *lateAcquirer) Complete(ctx context.Context, lease int64, res fleet.WorkerResult) error {
	err := l.Client.Complete(ctx, lease, res)
	if err == nil {
		l.completed.Store(true)
	}
	return err
}

// TestFleetWorkerExitsAfterCommit runs `fleet serve` in-process with
// one worker that asks for work again only after serve has committed:
// serve must keep answering until the worker has heard the fleet is
// done, so Work returns nil instead of polling a closed port. The
// merged -out directory must equal a `sweep` of the same grid byte for
// byte, and the worker's -dir must hold no attempt directory.
func TestFleetWorkerExitsAfterCommit(t *testing.T) {
	dir := t.TempDir()
	g, spec := twoCellGrid(t, dir)

	// serve prints its listen address on stderr.
	stderrR, stderrW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	savedArgs, savedStdout, savedStderr := os.Args, os.Stdout, os.Stderr
	merged := filepath.Join(dir, "merged")
	os.Args = []string{"neutrality", "fleet", "serve", "-grid", spec, "-out", merged,
		"-addr", "127.0.0.1:0", "-parts", "1", "-lease", "30s", "-quiet"}
	os.Stdout, os.Stderr = stdout, stderrW
	defer func() { os.Args, os.Stdout, os.Stderr = savedArgs, savedStdout, savedStderr }()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrR)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addr <- a
			}
		}
	}()
	served := make(chan struct{})
	go func() {
		defer close(served)
		main()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-ctx.Done():
		t.Fatal("fleet serve never printed its address")
	}
	tr := &lateAcquirer{Client: &fleet.Client{Base: base}, delay: 300 * time.Millisecond}
	workDir := filepath.Join(dir, "w1")
	err = fleet.Work(ctx, g, tr, fleet.WorkerOptions{ID: "w1", Dir: workDir, Workers: 1, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("worker did not finish after the commit: %v", err)
	}
	select {
	case <-served:
	case <-ctx.Done():
		t.Fatal("fleet serve did not return after its worker was told the fleet is done")
	}
	stderrW.Close()
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "2 cells aggregated") {
		t.Fatalf("fleet serve printed no summary:\n%s", out)
	}
	if left, _ := filepath.Glob(filepath.Join(workDir, "part-*")); len(left) > 0 {
		t.Fatalf("worker left attempt directories behind: %v", left)
	}
	sweepDir := filepath.Join(dir, "sweep")
	run(t, "sweep", "-grid", spec, "-out", sweepDir, "-quiet")
	assertSameFiles(t, merged, sweepDir)
}

// assertSameFiles fails unless two directories hold the same regular
// files with the same bytes.
func assertSameFiles(t *testing.T, got, want string) {
	t.Helper()
	files := func(dir string) map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, e := range entries {
			if e.Type().IsRegular() {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				m[e.Name()] = string(b)
			}
		}
		return m
	}
	g, w := files(got), files(want)
	if len(g) != len(w) {
		t.Fatalf("%s holds %d files, %s holds %d", got, len(g), want, len(w))
	}
	for name, b := range w {
		if g[name] != b {
			t.Fatalf("%s differs between %s and %s", name, got, want)
		}
	}
}
