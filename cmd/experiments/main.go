// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6). By default it runs at a reduced scale (10 Mbps,
// 30 Mbps for topology B, 180 s — identical load shape, fewer packets);
// pass -full for the paper's 100 Mbps / 10-minute operating point.
//
// Usage:
//
//	experiments [-full] [-seed N] [-workers N]
//	            [-only fig8,fig10,fig11,tables,sweeps,ablations]
//
// Independent experiments fan out across a bounded worker pool
// (-workers, default one per CPU); per-unit seeds are derived from
// (seed, unit index), so the output is byte-identical for every
// -workers value. Interrupting the run (Ctrl-C) stops dispatching new
// experiments and aborts the in-flight emulations mid-run.
//
// Output is the textual equivalent of each figure: one row per experiment
// for Figure 8's nine graphs, five-number summaries per boxplot for
// Figure 10, sparkline traces for Figure 11.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"neutrality/internal/figures"
	"neutrality/internal/runner"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's full scale (100 Mbps, 600 s; takes minutes)")
	seed := flag.Int64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "parallel experiment workers (0 = one per CPU)")
	only := flag.String("only", "", "comma-separated subset: tables,fig8,fig10,fig11,sweeps,ablations")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	x := figures.Exec{Ctx: ctx, Workers: *workers}

	sc, scB := figures.Quick, figures.QuickB
	if *full {
		sc, scB = figures.Full, figures.Full
	}
	want := map[string]bool{}
	if *only != "" {
		for _, part := range strings.Split(*only, ",") {
			want[strings.TrimSpace(part)] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	start := time.Now()
	// The pool width goes to stderr so stdout stays byte-identical for
	// every -workers value.
	fmt.Fprintf(os.Stderr, "workers: %d\n", poolWidth(*workers))
	fmt.Printf("Network Neutrality Inference — evaluation reproduction (scale=%.0f%%, %gs runs, seed=%d)\n\n",
		sc.Factor*100, sc.DurationSec, *seed)

	if run("tables") {
		fmt.Println(figures.Table1())
		fmt.Println(figures.Table3())
	}

	if run("fig8") {
		// All nine sets flattened into one 34-unit batch so the pool
		// stays full across set boundaries; results keep the paper's
		// set and row order.
		results, err := figures.Fig8(x, sc, *seed)
		if err != nil {
			log.Fatalf("fig8: %v", err)
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}

	if run("fig10") {
		r, err := figures.Fig10(x, scB, *seed)
		if err != nil {
			log.Fatalf("fig10: %v", err)
		}
		fmt.Println(r)
	}

	if run("fig11") {
		r, err := figures.Fig11(x, scB, *seed)
		if err != nil {
			log.Fatalf("fig11: %v", err)
		}
		fmt.Println(r)
	}

	if run("sweeps") {
		// The two sweeps are independent; run them as parallel units and
		// print in the paper's order.
		sweeps := []func() (*figures.SweepResult, error){
			func() (*figures.SweepResult, error) { return figures.LossThresholdSweep(x, sc, *seed) },
			func() (*figures.SweepResult, error) { return figures.IntervalSweep(x, sc, *seed) },
		}
		results, err := runner.Map(ctx, *workers, len(sweeps), func(_ context.Context, i int) (*figures.SweepResult, error) {
			return sweeps[i]()
		})
		if err != nil {
			log.Fatalf("sweep: %v", err)
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}

	if run("ablations") {
		// Five independent ablation/baseline studies as parallel units,
		// printed in the documented order.
		studies := []func() (fmt.Stringer, error){
			func() (fmt.Stringer, error) { return figures.AblationNormalization(x, sc, *seed) },
			func() (fmt.Stringer, error) { return figures.AblationClustering(x, *seed) },
			func() (fmt.Stringer, error) { return figures.AblationPairObservations(), nil },
			func() (fmt.Stringer, error) { return figures.AblationDelayMetric(x, sc, *seed) },
			func() (fmt.Stringer, error) { return figures.BaselineComparison(*seed) },
		}
		results, err := runner.Map(ctx, *workers, len(studies), func(_ context.Context, i int) (fmt.Stringer, error) {
			return studies[i]()
		})
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}

	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func poolWidth(workers int) int {
	if workers <= 0 {
		return runner.DefaultWorkers()
	}
	return workers
}
