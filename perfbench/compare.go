package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// recordLatencies are the unbounded latencies each record carries in
// its extra (see endToEnd); compare reports them by the pair rule only.
var recordLatencies = []string{"ack_p50_ms", "ack_p99_ms", "verdict_p50_ms", "verdict_p90_ms", "read_p99_ms", "close_growth"}

// compareMain reads two result sets — files holding the standard output
// of untraced runs, parent first — and prints one row per workload and
// end-to-end metric, then per latency in the records: each side's median
// and quartiles, the pairs the change won (runs paired by seed), and a
// verdict by the benchmark's bounds:
//
//   - better: the change wins at least nine tenths of the pairs, ties
//     counting for neither, and the medians differ by more than the
//     parent's quartile spread;
//   - worse: the change's median is worse than the parent's by more
//     than the metric's bound (for an unbounded latency: the parent
//     wins nine tenths of the pairs and the medians differ by more than
//     the parent's quartile spread);
//   - unresolved: the parent's own spread is wider than the bound and
//     not every change run beats every parent run (for a latency: no
//     claim either way);
//   - same: otherwise.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare parent.out change.out")
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	rows := compare(parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: no workload has untraced runs on both sides")
		return 1
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%-8s %-15s %-32s %-32s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-15s %-32s %-32s %-7s %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.parent.med, r.parent.q1, r.parent.q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.change.med, r.change.q1, r.change.q3),
			fmt.Sprintf("%d/%d", r.won, r.pairs), r.verdict)
	}
	if err := w.Flush(); err != nil {
		return 1
	}
	return 0
}

// readRecords collects the untraced bench records in a file, by workload.
func readRecords(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"bench_record":`) {
			continue
		}
		var rec struct {
			R *result `json:"bench_record"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.R.Trace {
			out[rec.R.Workload] = append(out[rec.R.Workload], rec.R)
		}
	}
	return out, sc.Err()
}

type sideStats struct{ med, q1, q3 float64 }

type compareRow struct {
	workload, metric string
	parent, change   sideStats
	won, pairs       int
	verdict          string
}

func stats3(xs []float64) sideStats {
	q1, q3 := quartiles(xs)
	return sideStats{median(xs), q1, q3}
}

func compare(parent, change map[string][]*result) []compareRow {
	var names []string
	for w := range parent {
		if len(change[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []compareRow
	for _, w := range names {
		ps, cs := parent[w], change[w]
		// Pair runs by seed.
		bySeed := map[int64]*result{}
		for _, r := range ps {
			bySeed[r.Seed] = r
		}
		metrics := append([]metricDef(nil), endToEnd...)
		for _, name := range recordLatencies {
			metrics = append(metrics, metricDef{Name: name, Better: "lower"})
		}
		for _, m := range metrics {
			var pv, cv []float64
			for _, r := range ps {
				pv = append(pv, value(r, m.Name))
			}
			for _, r := range cs {
				cv = append(cv, value(r, m.Name))
			}
			better := func(a, b float64) bool { // a better than b
				if m.Better == "higher" {
					return a > b
				}
				return a < b
			}
			row := compareRow{workload: w, metric: m.Name, parent: stats3(pv), change: stats3(cv)}
			lost := 0
			for _, r := range cs {
				if p := bySeed[r.Seed]; p != nil {
					row.pairs++
					switch c, b := value(r, m.Name), value(p, m.Name); {
					case better(c, b):
						row.won++
					case better(b, c):
						lost++
					}
				}
			}
			allBetter := true
			for _, c := range cv {
				for _, p := range pv {
					if !better(c, p) {
						allBetter = false
					}
				}
			}
			pm, cm := row.parent.med, row.change.med
			worse := 0.0 // relative worsening of the change's median
			if pm != 0 {
				worse = (cm - pm) / pm
				if m.Better == "higher" {
					worse = -worse
				}
			}
			spread := 0.0
			if pm != 0 {
				spread = (row.parent.q3 - row.parent.q1) / pm
			}
			diff := cm - pm
			if diff < 0 {
				diff = -diff
			}
			decisive := func(wins int) bool {
				return row.pairs > 0 && float64(wins) >= 0.9*float64(row.pairs) && diff > row.parent.q3-row.parent.q1
			}
			switch {
			case decisive(row.won) && better(cm, pm):
				row.verdict = "better"
			case m.Bound == 0 && decisive(lost) && better(pm, cm):
				row.verdict = "worse"
			case m.Bound == 0:
				row.verdict = "no claim"
			case worse > m.Bound:
				row.verdict = "worse"
			case spread > m.Bound && !allBetter:
				row.verdict = "unresolved"
			default:
				row.verdict = "same"
			}
			rows = append(rows, row)
		}
	}
	return rows
}
