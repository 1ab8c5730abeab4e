package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestPartialSummaryConverges: the live merged-so-far view grows
// monotonically as partitions complete and, once the fleet finishes,
// its Summary is byte-identical to the committed one — the live
// endpoint is a prefix of the commit, never a different artifact — and
// stays so after the commit removed the staging directory.
func TestPartialSummaryConverges(t *testing.T) {
	const parts = 3
	o, _ := testOrch(t, parts, Config{Lease: time.Minute, SpeculateAfter: -1})

	ps, err := o.PartialSummary()
	if err != nil {
		t.Fatal(err)
	}
	if ps.DoneParts != 0 || ps.Summary != "" {
		t.Fatalf("fresh fleet: %+v", ps)
	}

	prevCells := 0
	for k := 0; k < parts; k++ {
		a, err := o.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		res := stagePart(t, Local{O: o}, a)
		if err := o.Complete(a.Lease, res); err != nil {
			t.Fatal(err)
		}
		ps, err = o.PartialSummary()
		if err != nil {
			t.Fatal(err)
		}
		if ps.DoneParts != k+1 || ps.Parts != parts {
			t.Fatalf("after %d completions: %+v", k+1, ps)
		}
		if ps.DoneCells <= prevCells {
			t.Fatalf("done cells did not grow: %d -> %d", prevCells, ps.DoneCells)
		}
		prevCells = ps.DoneCells
		if ps.Summary == "" {
			t.Fatalf("no summary after %d completions", k+1)
		}
	}
	if ps.DoneCells != microGrid().Cells() {
		t.Fatalf("final view covers %d cells, grid has %d", ps.DoneCells, microGrid().Cells())
	}

	committed, err := o.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ps.Summary != committed.Summary {
		t.Fatalf("live summary diverges from committed:\n%s\nvs\n%s", ps.Summary, committed.Summary)
	}
	// The commit removed the staged copies; the view reads none.
	after, err := o.PartialSummary()
	if err != nil || after != ps {
		t.Fatalf("summary after the commit: %+v, %v", after, err)
	}
}

// TestPartialSummaryHTTP: the same convergence over the wire —
// GET /v1/summary against a live fleet server.
func TestPartialSummaryHTTP(t *testing.T) {
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
	ts := httptest.NewServer(NewServer(o))
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	ps, err := cl.FetchPartialSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.DoneParts != 0 || ps.Parts != 2 {
		t.Fatalf("fresh fleet over HTTP: %+v", ps)
	}

	for k := 0; k < 2; k++ {
		a, err := cl.Acquire(ctx, "w")
		if err != nil {
			t.Fatal(err)
		}
		res := stagePart(t, cl, a)
		if err := cl.Complete(ctx, a.Lease, res); err != nil {
			t.Fatal(err)
		}
	}
	ps, err = cl.FetchPartialSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := o.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.DoneParts != 2 || ps.Summary != committed.Summary {
		t.Fatalf("HTTP summary diverges: %+v vs\n%s", ps, committed.Summary)
	}
}
