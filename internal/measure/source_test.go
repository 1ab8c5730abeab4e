package measure

import (
	"errors"
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
