package figures

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with the current output")

// TestFig8Set4GoldenQuick pins the full rendered output of one Table 2
// set at Quick scale to a golden file recorded from the engine BEFORE the
// typed-event rewrite (closure timers, container/heap, per-packet
// allocation). A byte-for-byte match proves the zero-allocation engine —
// arena heap, physical cancellation, packet pooling, flow recycling — is
// output-preserving: same seeds, same verdicts, same congestion
// probabilities, same unsolvability scores.
//
// If an intentional behaviour change ever invalidates the file,
// regenerate it with:
//
//	go test ./internal/figures -run TestFig8Set4GoldenQuick -update-golden
func TestFig8Set4GoldenQuick(t *testing.T) {
	rs, err := Fig8(Exec{}, Quick, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	got := r.String()
	path := filepath.Join("testdata", "fig8_set4_quick_seed1.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Fig8 set 4 output diverged from the recorded golden run.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if r.Events == 0 {
		t.Fatal("no emulation events recorded for the set")
	}
}

// TestFig8RepeatDeterminism runs the same experiment set twice and
// requires identical rendered output, identical per-row event counts, and
// identical totals: the engine must fire same-timestamp events in
// schedule order, so a seed fully reproduces a run — including the exact
// number of processed events.
func TestFig8RepeatDeterminism(t *testing.T) {
	ra, err := Fig8(Exec{}, Quick, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Fig8(Exec{}, Quick, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra[0], rb[0]
	if a.String() != b.String() {
		t.Fatalf("repeated runs rendered differently:\n%s\nvs\n%s", a, b)
	}
	if a.Events != b.Events {
		t.Fatalf("processed event totals differ across runs: %d vs %d", a.Events, b.Events)
	}
	for i := range a.Rows {
		if a.Rows[i].Events != b.Rows[i].Events {
			t.Fatalf("row %d processed %d vs %d events", i, a.Rows[i].Events, b.Rows[i].Events)
		}
	}
}
