package figures

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFig8AllQuickChecksum runs all nine Fig 8 quick sets and compares a
// single digest of their concatenated rendered output against a recorded
// value. The digest was recorded from the engine BEFORE the cache-linear
// data-path rewrite (dense ground-truth collector, packet arena with
// index rings, pointer-free key-in-heap timer arena, TCP window rings),
// so a match proves the rewrite byte-identical across every experiment
// set — policing and shaping sweeps included — not just the set pinned
// by the full-text golden.
//
// If an intentional behaviour change ever invalidates the digest,
// regenerate it with:
//
//	go test ./internal/figures -run TestFig8AllQuickChecksum -update-golden
func TestFig8AllQuickChecksum(t *testing.T) {
	results, err := Fig8(Exec{}, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("Fig8 returned %d sets, want 9", len(results))
	}
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.String())
	}
	checkDigest(t, "fig8_all_quick_seed1.sha256", sb.String())
}

// checkDigest compares the SHA-256 of text with the digest recorded in
// testdata/name, rewriting the file first under -update-golden.
func checkDigest(t *testing.T, name, text string) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("digest %s does not match the digest %s recorded in %s:\n%s", got, strings.TrimSpace(string(want)), path, text)
	}
}

// TestArtifactsQuickChecksum pins the five paper artifacts that no
// other test runs — Fig 11 and the Section 6.5 sweeps on the emulator,
// the normalization ablation on the sweep engine, and the Section 7
// delay extension — at Quick scale (QuickB for Fig 11), seed 1. Each
// must show its own property, and their concatenated rendered output
// must match a recorded digest.
//
// If an intentional behaviour change ever invalidates the digest,
// regenerate it with:
//
//	go test ./internal/figures -run TestArtifactsQuickChecksum -update-golden
func TestArtifactsQuickChecksum(t *testing.T) {
	var sb strings.Builder
	x := Exec{}

	fig11, err := Fig11(x, QuickB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fig11.Neutral == nil || len(fig11.Neutral.Bytes) == 0 || fig11.Policer == nil || len(fig11.Policer.Bytes) == 0 {
		t.Fatalf("Fig 11 traces are empty:\n%s", fig11)
	}
	// The paper's point: both queues fill, and occupancy does not single
	// out the policer — the busy neutral link's median is at least as high.
	if fig11.NeutralSummary.Max == 0 || fig11.PolicerSummary.Max == 0 {
		t.Fatalf("expected both queues to be occupied:\n%s", fig11)
	}
	if fig11.PolicerSummary.Median > fig11.NeutralSummary.Median {
		t.Fatalf("Fig 11 policer median %v above the neutral link's %v:\n%s",
			fig11.PolicerSummary.Median, fig11.NeutralSummary.Median, fig11)
	}
	sb.WriteString(fig11.String())

	for _, sweep := range []func(Exec, Scale, int64) (*SweepResult, error){LossThresholdSweep, IntervalSweep} {
		r, err := sweep(x, Quick, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stable {
			t.Fatalf("verdict unstable across configurations:\n%s", r)
		}
		sb.WriteString(r.String())
	}

	for _, ablation := range []func(Exec, Scale, int64) (*AblationResult, error){AblationNormalization, AblationDelayMetric} {
		r, err := ablation(x, Quick, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass {
			t.Fatalf("design choice not validated:\n%s", r)
		}
		sb.WriteString(r.String())
	}

	checkDigest(t, "artifacts_quick_seed1.sha256", sb.String())
}
