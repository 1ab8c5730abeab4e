package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"neutrality"
	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/serve"
	"neutrality/internal/topo"
)

// plantedLink is the differentiating link of the streaming workloads:
// on figure4, l1 polices class C2.
const plantedLink = "l1"

// plantedFigure4 returns the figure4 network and its ground truth: every
// link neutral at 0.02, except l1, which treats C1 at 0.05 and polices
// C2 at 0.7 (the service benches' scenario).
func plantedFigure4() (*graph.Network, graph.Perf) {
	n := topo.Figure4()
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for l := 0; l < n.NumLinks(); l++ {
		perf.SetNeutral(graph.LinkID(l), 0.02)
	}
	l1, _ := n.LinkByName(plantedLink)
	perf.Set(l1.ID, topo.C1, 0.05)
	perf.Set(l1.ID, topo.C2, 0.7)
	return n, perf
}

// checkServed is the correctness gate of the streaming workloads: the
// served verdict covers exactly the generated records and carries, slice
// by slice, the unsolvability and classification that batch inference
// (neutrality.InferMeasured) computes over the generated table, and it
// flags the planted link.
func checkServed(vb []byte, n *graph.Network, table *neutrality.Measurements, records int64) error {
	var ev serve.EpochVerdict
	if err := json.Unmarshal(vb, &ev); err != nil {
		return fmt.Errorf("served verdict does not parse: %w", err)
	}
	if ev.Records != records {
		return fmt.Errorf("served verdict covers %d records, generated %d", ev.Records, records)
	}
	if ev.Intervals != table.Intervals() {
		return fmt.Errorf("served verdict covers %d intervals, generated %d", ev.Intervals, table.Intervals())
	}
	if err := matchSlices(ev, neutrality.InferMeasured(n, table, neutrality.DefaultMeasureOptions())); err != nil {
		return err
	}
	flagged := false
	for _, sv := range ev.Slices {
		if sv.NonNeutral && !sv.Redundant && seqHas(sv.Seq, plantedLink) {
			flagged = true
		}
	}
	if !ev.NonNeutral || !flagged {
		return fmt.Errorf("planted link %s not flagged: %s", plantedLink, vb)
	}
	return nil
}

// matchSlices compares a served verdict with an inference result.
func matchSlices(ev serve.EpochVerdict, ref *core.Result) error {
	if len(ev.Slices) != len(ref.Candidates) {
		return fmt.Errorf("served verdict has %d slices, batch inference %d", len(ev.Slices), len(ref.Candidates))
	}
	for i, v := range ref.Candidates {
		sv := ev.Slices[i]
		if sv.Seq != v.SeqNames() || sv.Unsolvability != v.Unsolvability || sv.NonNeutral != v.NonNeutral || sv.Redundant != v.Redundant {
			return fmt.Errorf("slice %d: served %s unsolvability %v non-neutral %v, batch %s %v %v",
				i, sv.Seq, sv.Unsolvability, sv.NonNeutral, v.SeqNames(), v.Unsolvability, v.NonNeutral)
		}
	}
	return nil
}

// matchSlicesJSON compares a served verdict's bytes with a result.
func matchSlicesJSON(vb []byte, ref *core.Result) error {
	var ev serve.EpochVerdict
	if err := json.Unmarshal(vb, &ev); err != nil {
		return fmt.Errorf("served verdict does not parse: %w", err)
	}
	return matchSlices(ev, ref)
}

// seqHas reports whether a rendered link sequence "<l1,l2>" has link.
func seqHas(seq, link string) bool {
	for _, l := range strings.Split(strings.Trim(seq, "<>"), ",") {
		if l == link {
			return true
		}
	}
	return false
}
