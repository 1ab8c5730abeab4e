package sweep

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with the current output")

// TestDemoPartitionsGolden pins the demo grid's records at the scale the
// sweep benchmark runs them: three partitions of DemoGrid() at base seed
// 1 (the grid's first cells on topology A, the A/B boundary, and the
// last cells on topology B), hashed over each record's seed, event
// count, verdict and unsolvability bits. The Fig 8 goldens run at Quick
// scale on other topologies; this digest is what proves an emulator
// change byte-identical on the cells the sweep workload executes.
//
// If an intentional behaviour change ever invalidates the digest,
// regenerate it with:
//
//	go test ./internal/sweep -run TestDemoPartitionsGolden -update-golden
func TestDemoPartitionsGolden(t *testing.T) {
	g := DemoGrid()
	var sb strings.Builder
	for _, k := range []int{1, 63, 125} {
		res, err := Run(context.Background(), g, Options{
			Shards: 4, BaseSeed: 1, Partition: Partition{K: k, N: 125},
			OnRecord: func(r Record) {
				fmt.Fprintf(&sb, "%d %d %d %t %016x\n", r.Cell, r.Seed, r.Events, r.Verdict, math.Float64bits(r.Unsolvability))
			},
		})
		if err != nil {
			t.Fatalf("partition %d/125: %v", k, err)
		}
		if res.Total != 8 {
			t.Fatalf("partition %d/125 covers %d cells, want 8", k, res.Total)
		}
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
	path := filepath.Join("testdata", "demo_partitions_seed1.sha256")
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
		t.Fatalf("demo partition digest %s does not match the recorded %s:\n%s", got, strings.TrimSpace(string(want)), sb.String())
	}
}
