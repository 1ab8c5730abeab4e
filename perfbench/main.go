// Command perfbench is the repository's benchmark. It drives the
// streaming service (leaf→root tree over loopback HTTP) and the sweep
// engine through their public entry points on three named workloads,
// prints every end-to-end metric by name and unit, checks the outputs
// against batch inference, and in a traced run breaks the time down
// layer by layer into a ledger whose rows should add up to the
// end-to-end time. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload fanin --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare parent.out change.out
//
// The last line of standard output is the result object (correct,
// attempted, failed, metrics); the line before it, {"bench_record": ...}, is the
// full record (provenance, every metric, the ledger, the checks) that
// compare mode reads. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"neutrality/internal/sweep"
)

// injection slows one stage from outside the program, for the
// benchmark's self-test: a factor n > 1 makes every call of the stage
// take n times as long, by spinning in the benchmark's wrapper.
type injection struct {
	// Observer stretches the shadow inference's Observer wrapper.
	Observer int
	// HTTP stretches the leaf servers' middleware.
	HTTP int
	// Ship stretches the shippers' RoundTripper.
	Ship int
}

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Dir holds the run's state directories.
	Dir    string
	Inject injection
	// HistoryDepth and SweepPart shrink the workloads for tests (zero:
	// the benchmark's sizes).
	HistoryDepth int
	SweepPart    sweep.Partition
}

type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	ErrorFrac  float64            `json:"error_frac"`
	Metrics    map[string]float64 `json:"metrics"`
	Extra      map[string]float64 `json:"extra"`
	Ledger     *ledger            `json:"ledger,omitempty"`
	Checks     []string           `json:"checks"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"summary_sha256,omitempty"`
	tracer     *tracer
}

// value reads a metric or, failing that, a record extra.
func value(r *result, name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v
	}
	return r.Extra[name]
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config, *result) error{
	"fanin":   runFanin,
	"history": runHistory,
	"sweep":   runSweep,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.Workload, "workload", "", "workload: fanin, history or sweep")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics and the ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[cfg.Workload] == nil || cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fanin|history|sweep, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.Trace = *trace == 1
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.tracer != nil {
		path := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := res.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.check("spans written to %s", path)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "perfbench: correctness check failed:", f)
		}
		return 1
	}
	return 0
}

// run executes one workload and its correctness gate.
func run(ctx context.Context, cfg config) (*result, error) {
	res := &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Provenance: collectProvenance(),
		Metrics:    map[string]float64{},
		Extra:      map[string]float64{},
	}
	if err := workloads[cfg.Workload](ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if res.Ledger != nil {
		res.Metrics["trace.overhead_frac"] = res.Ledger.TraceOverhead
		res.Metrics["ledger.unaccounted_frac"] = res.Ledger.Unaccounted
	}
	if res.Attempted > 0 {
		res.ErrorFrac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// printResult prints the ledger, the full record, and last the result
// line: every end-to-end metric untraced, every per-layer metric traced.
// A layer the workload bypasses reads 0.
func printResult(w io.Writer, res *result) error {
	bw := bufio.NewWriter(w)
	if res.Ledger != nil {
		res.Ledger.print(bw, res.Workload)
	}
	for _, c := range res.Checks {
		fmt.Fprintln(bw, "check:", c)
	}
	rec, err := json.Marshal(struct {
		R *result `json:"bench_record"`
	}{res})
	if err != nil {
		return err
	}
	bw.Write(rec)
	bw.WriteByte('\n')

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := endToEnd
	if res.Trace {
		set = perLayer
	}
	metrics := map[string]value{}
	for _, m := range set {
		metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}
