package measure

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"neutrality/internal/errkind"
)

// TestStreamRecordValidate is the table test for the HTTP-boundary
// record validation: every malformed shape is rejected with the same
// errkind.Validation taxonomy the CSV reader uses.
func TestStreamRecordValidate(t *testing.T) {
	ok := StreamRecord{Source: "vp-1", Seq: 1, Interval: 0, Path: 0, Sent: 100, Lost: 1}
	cases := []struct {
		name string
		mut  func(r *StreamRecord)
		want bool // want a validation error
	}{
		{"valid", func(r *StreamRecord) {}, false},
		{"zero loss", func(r *StreamRecord) { r.Lost = 0 }, false},
		{"all lost", func(r *StreamRecord) { r.Lost = r.Sent }, false},
		{"idle record", func(r *StreamRecord) { r.Sent, r.Lost = 0, 0 }, false},
		{"last interval under cap", func(r *StreamRecord) { r.Interval = 9 }, false},
		{"empty source", func(r *StreamRecord) { r.Source = "" }, true},
		{"non-ASCII source", func(r *StreamRecord) { r.Source = "vp-é�" }, false},
		{"invalid UTF-8 source", func(r *StreamRecord) { r.Source = "vp-\xff" }, true},
		{"zero seq", func(r *StreamRecord) { r.Seq = 0 }, true},
		{"negative seq", func(r *StreamRecord) { r.Seq = -3 }, true},
		{"negative interval", func(r *StreamRecord) { r.Interval = -1 }, true},
		{"interval at cap", func(r *StreamRecord) { r.Interval = 10 }, true},
		{"negative path", func(r *StreamRecord) { r.Path = -1 }, true},
		{"path out of range", func(r *StreamRecord) { r.Path = 4 }, true},
		{"negative sent", func(r *StreamRecord) { r.Sent = -1 }, true},
		{"negative lost", func(r *StreamRecord) { r.Lost = -1 }, true},
		{"lost exceeds sent", func(r *StreamRecord) { r.Lost = r.Sent + 1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := ok
			tc.mut(&r)
			err := r.Validate(4, 10)
			if tc.want && !errors.Is(err, errkind.Validation) {
				t.Fatalf("Validate(%+v) = %v, want an errkind.Validation", r, err)
			}
			if !tc.want && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", r, err)
			}
		})
	}
	// An unlimited interval cap accepts any non-negative interval.
	r := ok
	r.Interval = 1 << 30
	if err := r.Validate(4, 0); err != nil {
		t.Fatalf("uncapped Validate = %v, want nil", err)
	}
}

// TestCSVValidationTagged asserts the reader's malformed-input errors
// carry errkind.Validation, distinguishing truncated or corrupt files
// from transport failure.
func TestCSVValidationTagged(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty input", ""},
		{"truncated header", "interval,path0_sent,\n"},
		{"renamed column", "interval,path0_sent,path0_loss\n"},
		{"short row", "interval,path0_sent,path0_lost\n0,5\n"},
		{"gap in intervals", "interval,path0_sent,path0_lost\n0,5,0\n2,5,0\n"},
		{"non-numeric count", "interval,path0_sent,path0_lost\n0,5,x\n"},
		{"lost exceeds sent", "interval,path0_sent,path0_lost\n0,5,9\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in))
			if !errors.Is(err, errkind.Validation) {
				t.Fatalf("ReadCSV(%q) = %v, want an errkind.Validation", tc.in, err)
			}
		})
	}
}

// TestSources exercises the Source implementations: CSV and in-memory
// feed the same table through the same interface.
func TestSources(t *testing.T) {
	m := NewMeasurements(2, 1)
	m.Add(0, 0, 100, 1)
	m.Add(1, 0, 90, 0)
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}

	for _, src := range []Source{CSVSource{R: strings.NewReader(sb.String())}, MemSource{M: m}} {
		got, err := src.Measurements()
		if err != nil {
			t.Fatalf("%T: %v", src, err)
		}
		if got.Intervals() != 2 || got.NumPaths() != 1 || got.Sent[0][0] != 100 || got.Lost[0][0] != 1 {
			t.Fatalf("%T returned wrong table: %+v", src, got)
		}
	}

	if _, err := (MemSource{}).Measurements(); !errors.Is(err, errkind.Validation) {
		t.Fatalf("nil MemSource = %v, want errkind.Validation", err)
	}
	bad := &Measurements{Sent: [][]int{{5}}, Lost: [][]int{{9}}}
	if _, err := (MemSource{M: bad}).Measurements(); !errors.Is(err, errkind.Validation) {
		t.Fatalf("inconsistent MemSource = %v, want errkind.Validation", err)
	}
}

// TestEnsureIntervals checks the streaming-growth helper.
func TestEnsureIntervals(t *testing.T) {
	m := NewMeasurements(0, 0)
	m.EnsureIntervals(3, 2)
	if m.Intervals() != 3 || m.NumPaths() != 2 {
		t.Fatalf("got %d intervals x %d paths, want 3x2", m.Intervals(), m.NumPaths())
	}
	m.Add(2, 1, 10, 1)
	m.EnsureIntervals(2, 2) // shrinking request is a no-op
	if m.Intervals() != 3 || m.Sent[2][1] != 10 {
		t.Fatal("EnsureIntervals disturbed existing rows")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTableRowsIndependent holds the chunked rows of NewMeasurements
// and EnsureIntervals to what separate row allocations gave: every row
// has capacity exactly paths, so an append to one row never writes
// into its neighbour; growth is idempotent; and a table rebuilt from
// JSON (as a snapshot restore builds it) grows the same way.
func TestTableRowsIndependent(t *testing.T) {
	const paths = 3
	check := func(m *Measurements, what string) {
		t.Helper()
		for r := range m.Sent {
			if len(m.Sent[r]) != paths || cap(m.Sent[r]) != paths || len(m.Lost[r]) != paths || cap(m.Lost[r]) != paths {
				t.Fatalf("%s: row %d has len/cap %d/%d sent, %d/%d lost, want %d", what, r,
					len(m.Sent[r]), cap(m.Sent[r]), len(m.Lost[r]), cap(m.Lost[r]), paths)
			}
		}
		for r := 0; r+1 < len(m.Sent); r++ {
			next := slices.Clone(m.Sent[r+1])
			_ = append(m.Sent[r], 99)
			_ = append(m.Lost[r], 99)
			if !slices.Equal(m.Sent[r+1], next) || slices.Contains(m.Lost[r+1], 99) {
				t.Fatalf("%s: an append to row %d wrote into row %d", what, r, r+1)
			}
		}
	}
	m := NewMeasurements(5, paths)
	check(m, "NewMeasurements")
	for n := 1; n <= 200; n += 7 {
		m.EnsureIntervals(n, paths)
	}
	m.EnsureIntervals(300, paths)
	check(m, "EnsureIntervals")
	for r := range m.Sent {
		m.Add(r, 1, r+2, 1)
	}
	before := slices.Clone(m.Sent)
	for _, n := range []int{0, 7, 300} {
		m.EnsureIntervals(n, paths)
		if m.Intervals() != 300 || !slices.EqualFunc(m.Sent, before, func(a, b []int) bool { return &a[0] == &b[0] }) {
			t.Fatalf("EnsureIntervals(%d) on a 300-row table moved or added rows", n)
		}
	}
	m.EnsureIntervals(301, paths)
	if m.Sent[300][1] != 0 || m.Sent[299][1] != 301 {
		t.Fatalf("row 300 = %v, row 299 = %v after growth", m.Sent[300], m.Sent[299])
	}
	if n := testing.AllocsPerRun(10, func() {
		g := &Measurements{}
		for i := 1; i <= rowChunk; i++ {
			g.EnsureIntervals(i, paths)
		}
	}); n > 24 {
		// One chunk per column plus the doubling of the two row-header
		// slices; a row allocation per interval would be 128 more.
		t.Errorf("growing %d rows one at a time: %v allocs, want at most 24", rowChunk, n)
	}

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored Measurements
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	restored.EnsureIntervals(400, paths)
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	if restored.Sent[299][1] != 301 || restored.Sent[399][0] != 0 {
		t.Fatal("a restored table lost rows or grew dirty ones")
	}
	for r := 301; r < 400; r++ {
		if cap(restored.Sent[r]) != paths || cap(restored.Lost[r]) != paths {
			t.Fatalf("restored table: grown row %d has cap %d", r, cap(restored.Sent[r]))
		}
	}
	restored.Sent = restored.Sent[301:]
	restored.Lost = restored.Lost[301:]
	check(&restored, "restored then grown")
}
