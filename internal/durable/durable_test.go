package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// image frames each payload as one line.
func image(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = append(b, FramePayload([]byte(p))...)
	}
	return b
}

// rejectX is the parse callback of the recovery tests: a payload that
// starts with 'x' is well framed but fails the caller's own checks.
func rejectX(payload []byte) error {
	if len(payload) > 0 && payload[0] == 'x' {
		return errors.New("rejected by parse")
	}
	return nil
}

// TestFrameFormat: the frame is crc32c as 8 lowercase hex digits, a
// space, the payload and a newline, and Unframe refuses anything else.
func TestFrameFormat(t *testing.T) {
	payload := []byte(`{"a":1}`)
	got := FramePayload(payload)
	want := fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)), payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("FramePayload = %q, want %q", got, want)
	}
	if p, err := Unframe(got[:len(got)-1]); err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("Unframe(FramePayload(x)) = %q, %v", p, err)
	}
	upper := bytes.ToUpper(got[:len(got)-1])
	for _, bad := range [][]byte{nil, []byte("0000000"), []byte("00000000x{}"), []byte("0000000g {}"), []byte("00000000 {}"), upper} {
		if _, err := Unframe(bad); err == nil {
			t.Errorf("Unframe(%q) accepted a bad frame", bad)
		}
	}
}

// TestRecoverOutcomes is the damage taxonomy every owner relies on:
// inside the claim any missing or bad line is an error; past it,
// adoption stops at the first bad line.
func TestRecoverOutcomes(t *testing.T) {
	good := image("a", "b", "c")
	flipped := append([]byte(nil), good...)
	flipped[len(FramePayload([]byte("a")))+frameHeader] ^= 1 // line 2's payload
	torn := append(image("a", "b"), "deadbeef torn\n"...)
	torn = append(torn, image("c")...)
	partial := append(append([]byte(nil), good...), "0000"...)
	rejected := image("a", "xb", "c")

	for _, tc := range []struct {
		name    string
		data    []byte
		claimed int
		lines   int // adopted lines; -1 = error
	}{
		{"intact", good, 3, 3},
		{"intact, unclaimed", good, 0, 3},
		{"torn tail", torn, 2, 2},
		{"partial last line", partial, 3, 3},
		{"partial line inside the claim", partial, 4, -1},
		{"crc flip inside the claim", flipped, 3, -1},
		{"crc flip past the claim", flipped, 1, 1},
		{"claim longer than the file", good, 4, -1},
		{"claim over a missing file", nil, 1, -1},
		{"missing file, no claim", nil, 0, 0},
		{"parse rejects inside the claim", rejected, 2, -1},
		{"parse rejects past the claim", rejected, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ends, err := Recover(tc.data, tc.claimed, rejectX)
			if tc.lines < 0 {
				if err == nil {
					t.Fatalf("Recover adopted %d lines, want an error", len(ends))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ends) != tc.lines {
				t.Fatalf("adopted %d lines, want %d", len(ends), tc.lines)
			}
			for i, end := range ends {
				if want := int64(len(image([]string{"a", "b", "c"}[:i+1]...))); end != want {
					t.Fatalf("line %d ends at %d, want %d", i+1, end, want)
				}
			}
		})
	}
}

// FuzzRecover holds Recover to its contract over arbitrary images and
// claims: on success every claimed line parsed, the end offsets rise
// strictly and fall on newlines, and the adopted lines are the longest
// valid prefix; any bad or missing line inside the claim is an error.
func FuzzRecover(f *testing.F) {
	f.Add(image("a", "b", "c"), uint8(3))
	f.Add(append(image("a", "xb"), "deadbeef torn"...), uint8(1))
	f.Add(image("a", "b"), uint8(3))
	f.Add([]byte("00000000 \n\n"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, claim uint8) {
		claimed := int(claim % 16)
		ends, err := Recover(data, claimed, rejectX)

		// Reference: the longest prefix of complete lines that unframe
		// and parse.
		var want []int64
		for off := 0; ; {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				break
			}
			p, uerr := Unframe(data[off : off+nl])
			if uerr != nil || rejectX(p) != nil {
				break
			}
			off += nl + 1
			want = append(want, int64(off))
		}
		if len(want) < claimed {
			if err == nil {
				t.Fatalf("claim of %d over %d valid lines recovered without error", claimed, len(want))
			}
			return
		}
		if err != nil {
			t.Fatalf("claim of %d over %d valid lines: %v", claimed, len(want), err)
		}
		if !slices.Equal(ends, want) {
			t.Fatalf("ends %v, want the longest valid prefix %v", ends, want)
		}
		for i, end := range ends {
			if (i > 0 && end <= ends[i-1]) || data[end-1] != '\n' {
				t.Fatalf("end %d = %d does not close a line after %v", i, end, ends[:i])
			}
		}
	})
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWriteAtomic(t *testing.T) {
	d := At(t.TempDir())
	for _, content := range []string{"one\n", "two\n"} {
		if err := d.WriteAtomic("m.json", []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, d.Path("m.json")); got != content {
			t.Fatalf("m.json holds %q, want %q", got, content)
		}
	}
	info, err := os.Stat(d.Path("m.json"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", info.Mode().Perm())
	}
	assertNoTemps(t, d.Path(""))
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	temps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) > 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
}

// TestWriteAtomicFailureRemovesTemp: a write whose rename fails leaves
// no temp file behind and breaks the Dir.
func TestWriteAtomicFailureRemovesTemp(t *testing.T) {
	d := At(t.TempDir())
	// A non-empty directory under the target name makes the rename fail.
	if err := os.MkdirAll(d.Path("m.json/x"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := d.WriteAtomic("m.json", []byte("data"))
	if err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	assertNoTemps(t, d.Path(""))
	if err2 := d.WriteAtomic("other.json", []byte("data")); err2 != err {
		t.Fatalf("write after a failure = %v, want the latched %v", err2, err)
	}
}

// TestConcurrentWriteAtomic: writers sharing a directory through their
// own handles never collide on a temp name.
func TestConcurrentWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = At(dir).WriteAtomic("shard-0000.jsonl", []byte(fmt.Sprintf("upload %d\n", i)))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	assertNoTemps(t, dir)
}

// TestOpenRemovesLeftoverTemps: Open sweeps up the temp files a killed
// writer left — this build's unique names and the fixed names earlier
// builds used — and nothing else; At touches nothing.
func TestOpenRemovesLeftoverTemps(t *testing.T) {
	dir := t.TempDir()
	names := []string{"serve.json.tmp", "snapshot-00000099.json.tmp", "manifest.json.123456.tmp", "keep.json"}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	At(dir)
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != len(names) {
		t.Fatalf("At removed files: %v", left)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || filepath.Base(left[0]) != "keep.json" {
		t.Fatalf("after Open the directory holds %v, want only keep.json", left)
	}
}

// TestLog: appends are framed and buffered until Flush, Truncate drops
// both the buffer and the file past keep, and a failpoint refusal
// leaves the log usable.
func TestLog(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.OpenLog("l.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	appendLine := func(p string) error {
		line, err := l.Append(func(b []byte) []byte { return append(b, p...) })
		if err == nil && !bytes.Equal(line, FramePayload([]byte(p))) {
			t.Fatalf("Append returned %q, want the framed line", line)
		}
		return err
	}
	for _, p := range []string{"a", "b"} {
		if err := appendLine(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFile(t, d.Path("l.jsonl")); got != "" {
		t.Fatalf("unflushed appends reached the file: %q", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := appendLine("dropped"); err != nil {
		t.Fatal(err)
	}
	keep := int64(len(image("a")))
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("refused")
	d.Failpoint = func(op, name string) error {
		if op == "append" && name == "l.jsonl" {
			return boom
		}
		return nil
	}
	if err := appendLine("refused"); !errors.Is(err, boom) {
		t.Fatalf("Append under a refusing failpoint = %v", err)
	}
	d.Failpoint = nil
	if err := appendLine("c"); err != nil {
		t.Fatalf("a failpoint refusal broke the log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, d.Path("l.jsonl")), string(image("a", "c")); got != want {
		t.Fatalf("log holds %q, want %q", got, want)
	}
}

// TestLogBuffering pins when a Log's bytes reach its file: nothing on
// OpenLog (not even a buffer), nothing on an Append below the spill
// size, everything at Flush; an Append that fills the buffer to
// spillAt writes early, a line longer than the buffer still lands
// whole, and Truncate drops what is buffered.
func TestLogBuffering(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.OpenLog("l.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if l.buf != nil {
		t.Fatal("OpenLog allocated a write buffer")
	}
	size := func() int {
		t.Helper()
		return len(readFile(t, d.Path("l.jsonl")))
	}
	var want []string
	add := func(p string) {
		t.Helper()
		if _, err := l.Append(func(b []byte) []byte { return append(b, p...) }); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	line := strings.Repeat("r", 90) // about one journal record line
	for range 256 {
		add(line)
	}
	if n := size(); n != 0 {
		t.Fatalf("an ack's worth of appends (%d bytes) wrote %d bytes before Flush", len(image(want...)), n)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, d.Path("l.jsonl")); got != string(image(want...)) || l.buf != nil {
		t.Fatalf("after Flush the file holds %d bytes, want %d; buffer held: %v", len(got), len(image(want...)), l.buf != nil)
	}

	flushed := size()
	for size() == flushed {
		add(line)
		if pending := len(image(want...)) - flushed; pending > spillAt+len(image(line)) {
			t.Fatalf("%d bytes pending and none written", pending)
		}
	}
	if got := readFile(t, d.Path("l.jsonl")); got != string(image(want...)) {
		t.Fatalf("the spill wrote %d bytes, want every pending line (%d)", len(got), len(image(want...)))
	}
	add(line)
	if size() != len(image(want[:len(want)-1]...)) {
		t.Fatal("an append after the spill reached the file before Flush")
	}
	add(strings.Repeat("L", 2*logBufSize))
	if got := readFile(t, d.Path("l.jsonl")); got != string(image(want...)) {
		t.Fatal("a line longer than the buffer did not spill whole")
	}

	keep := int64(size())
	add("dropped")
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	want = want[:len(want)-1]
	add("kept")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, d.Path("l.jsonl")); got != string(image(want...)) {
		t.Fatal("Truncate kept a buffered line, or Close lost one")
	}
}

// TestClaimCodec: the hand-written claim encoder writes exactly
// json.Marshal's bytes, and the parser accepts only that form.
func TestClaimCodec(t *testing.T) {
	for _, c := range []Claim{
		{ShardLines: []int{0}},
		{SnapshotEpoch: 24, ShardLines: []int{7, 0, 1 << 40, 3}, Records: 1<<62 + 5, Epochs: 31},
	} {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got := appendClaim([]byte("prefix"), &c)
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("appendClaim = %s, json.Marshal = %s", got[len("prefix"):], want)
		}
		back, err := parseClaim(want)
		if err != nil {
			t.Fatal(err)
		}
		if rt, _ := json.Marshal(back); !bytes.Equal(rt, want) {
			t.Fatalf("parseClaim(%s) round-trips to %s", want, rt)
		}
	}
	for _, bad := range []string{
		`{"snapshot_epoch":0,"shard_lines":[1],"records":1,"epochs":0,"extra":1}`,
		`{"shard_lines":[1],"snapshot_epoch":0,"records":1,"epochs":0}`,
		`{"snapshot_epoch":0, "shard_lines":[1],"records":1,"epochs":0}`,
		`{"snapshot_epoch":0,"shard_lines":null,"records":1,"epochs":0}`,
		`{"snapshot_epoch":0,"shard_lines":[1]}`,
		`[]`,
	} {
		if _, err := parseClaim([]byte(bad)); err == nil {
			t.Fatalf("parseClaim accepted %s", bad)
		}
	}
}
