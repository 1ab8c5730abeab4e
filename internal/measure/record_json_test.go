package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// The StreamRecord codec must be indistinguishable from encoding/json:
// the encoder writes json.Marshal's bytes and the decoder accepts,
// rejects and decodes exactly what json.Unmarshal does. Both fuzz
// targets compare against encoding/json directly.

// unmarshalRecord is the reference decoder: json.Unmarshal into a zero
// record.
func unmarshalRecord(data []byte) (StreamRecord, error) {
	var r StreamRecord
	err := json.Unmarshal(data, &r)
	return r, err
}

func FuzzDecodeStreamRecord(f *testing.F) {
	for _, s := range []string{
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"","seq":0,"interval":0,"path":0,"sent":0,"lost":0}`,
		`{"source":"vp <&> b","seq":-5,"interval":-1,"path":3,"sent":-2,"lost":7}`,
		`{"seq":1,"source":"vp-a","interval":0,"path":0,"sent":200,"lost":1}`,
		`{"Source":"vp-a","SEQ":1,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{ "source" : "vp-a", "seq": 1, "interval": 0, "path": 0, "sent": 200, "lost": 1 }`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200,"lost":1} `,
		`{"source":"vp:a/b c","seq":42,"interval":7,"path":2,"sent":0,"lost":0}`,
		`{"source":"v\"p\\","seq":1,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vé","seq":1,"interval":0,"path":0,"sent":200,"lost":1}`,
		"{\"source\":\"v\xff\",\"seq\":1,\"interval\":0,\"path\":0,\"sent\":200,\"lost\":1}",
		"{\"source\":\"v\x7f\x01\",\"seq\":1,\"interval\":0,\"path\":0,\"sent\":200,\"lost\":1}",
		`{"source":"vp-a","seq":-0,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":01,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":1e3,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":1.0,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":null,"seq":null,"interval":0,"path":0,"sent":200,"lost":1}`,
		`null`,
		`{"source":"vp-a","seq":1,"seq":2,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":999999999999999999,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":9223372036854775807,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":9223372036854775808,"interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":-9223372036854775808,"interval":-9223372036854775809,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200,"lost":1}x`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200,"lost":1}}`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200}`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":200,"lost":1,"extra":true}`,
		`{"source":"vp-a","seq":"1","interval":0,"path":0,"sent":200,"lost":1}`,
		`{"source":"vp-a`,
		``,
	} {
		f.Add([]byte(s))
	}
	// One table across the whole run, so a line decodes through a
	// table that already holds names from earlier inputs — its own
	// source among them once it has been seen.
	var names SourceNames
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeStreamRecord(data)
		want, werr := unmarshalRecord(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", data, err, werr)
		}
		if err == nil && got != want {
			t.Fatalf("%q: codec %+v, encoding/json %+v", data, got, want)
		}
		for range 2 {
			tgot, terr := names.Decode(data)
			if (terr == nil) != (err == nil) || tgot != got {
				t.Fatalf("%q: through the name table %+v (%v), plain %+v (%v)", data, tgot, terr, got, err)
			}
		}
		if names.Len() > MaxSourceNames {
			t.Fatalf("name table holds %d names, bound %d", names.Len(), MaxSourceNames)
		}
	})
}

func FuzzAppendStreamRecord(f *testing.F) {
	f.Add("vp-a", int64(1), 0, 0, 200, 1)
	f.Add("", int64(0), -1, -2, -3, -4)
	f.Add("<&>", int64(-9223372036854775808), 1<<62, 3, 9, 9)
	f.Add("a<b", int64(1), 0, 0, 1, 1)
	f.Add("a>b", int64(1), 0, 0, 1, 1)
	f.Add("a&b", int64(1), 0, 0, 1, 1)
	f.Add("a\u2028b\u2029", int64(1), 0, 0, 1, 1)
	f.Add("é", int64(9223372036854775807), 0, 0, 0, 0)
	f.Add("a b ", int64(5), 0, 1, 2, 3)
	f.Add("\xff", int64(1), 0, 0, 1, 1)
	f.Add("\x7f", int64(1), 0, 0, 1, 1)
	f.Add("q\"b\\s\n\t\x00", int64(1), 0, 0, 1, 1)
	f.Add("digits", int64(9), 10, 99, 100, 999)
	f.Add("digits", int64(1000), 9999, 10000, -1, -10000)
	f.Fuzz(func(t *testing.T, source string, seq int64, interval, path, sent, lost int) {
		r := StreamRecord{Source: source, Seq: seq, Interval: interval, Path: path, Sent: sent, Lost: lost}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := AppendStreamRecordJSON(append([]byte(nil), prefix...), &r)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%+v: codec %q, json.Marshal %q", r, got[len(prefix):], want)
		}
		// What the encoder writes, the decoder reads back as
		// encoding/json would.
		back, err := DecodeStreamRecord(want)
		if ref, rerr := unmarshalRecord(want); err != nil || rerr != nil || back != ref {
			t.Fatalf("%q: decode %+v (%v), encoding/json %+v (%v)", want, back, err, ref, rerr)
		}
	})
}

// TestStreamRecordCodecFastPath pins which inputs skip reflection: the
// canonical shape decodes, and a plain record's encoding is canonical.
func TestStreamRecordCodecFastPath(t *testing.T) {
	r := StreamRecord{Source: "vp-a/01", Seq: 12, Interval: 3, Path: 1, Sent: 200, Lost: -1}
	line := AppendStreamRecordJSON(nil, &r)
	got, ok := decodeCanonical(line, nil)
	if !ok || got != r {
		t.Fatalf("canonical %q: decoded %+v ok=%v", line, got, ok)
	}
	for _, s := range []string{
		`{"source":"vp-a","seq":-0,"interval":0,"path":0,"sent":1,"lost":0}`,
		`{"source":"vp-a","seq":1,"interval":0,"path":0,"sent":1,"lost":0} `,
		"{\"source\":\"v\tp\",\"seq\":1,\"interval\":0,\"path\":0,\"sent\":1,\"lost\":0}",
		`{"source":"vp-a","seq":1234567890123456789,"interval":0,"path":0,"sent":1,"lost":0}`,
	} {
		if _, ok := decodeCanonical([]byte(s), nil); ok {
			t.Errorf("%s: took the fast path", s)
		}
	}
	if testing.AllocsPerRun(100, func() { line = AppendStreamRecordJSON(line[:0], &r) }) != 0 {
		t.Error("encoding a plain record allocates")
	}
	if n := testing.AllocsPerRun(100, func() { r, _ = DecodeStreamRecord(line) }); n != 1 {
		t.Errorf("decoding a canonical record: %v allocs, want 1 (the source string)", n)
	}
	var names SourceNames
	if n := testing.AllocsPerRun(100, func() { r, _ = names.Decode(line) }); n != 0 {
		t.Errorf("decoding a canonical record through a table that holds its source: %v allocs, want 0", n)
	}
}

// TestSourceNamesBounds holds the table to its bounds: a name past
// MaxSourceNameLen is never kept, names past MaxSourceNames are
// decoded but not kept, and a kept name is shared by later records.
func TestSourceNamesBounds(t *testing.T) {
	var names SourceNames
	line := func(src string) []byte {
		return AppendStreamRecordJSON(nil, &StreamRecord{Source: src, Seq: 1, Sent: 2, Lost: 1})
	}
	decode := func(src string) string {
		t.Helper()
		r, err := names.Decode(line(src))
		if err != nil || r.Source != src {
			t.Fatalf("%.20q: decoded %.20q, %v", src, r.Source, err)
		}
		return r.Source
	}
	long := strings.Repeat("x", MaxSourceNameLen+1)
	decode(long)
	if names.Len() != 0 {
		t.Fatalf("a %d-byte name was kept", len(long))
	}
	edge := strings.Repeat("y", MaxSourceNameLen)
	if a, b := decode(edge), decode(edge); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("a %d-byte name was not shared", len(edge))
	}
	for i := 0; names.Len() < MaxSourceNames; i++ {
		decode(fmt.Sprintf("vp-%d", i))
	}
	decode("one-too-many")
	if names.Len() != MaxSourceNames {
		t.Fatalf("table holds %d names, bound %d", names.Len(), MaxSourceNames)
	}
	if a, b := decode("one-too-many"), decode("one-too-many"); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("a name past the bound was kept")
	}
	if a, b := decode("vp-7"), decode("vp-7"); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("a kept name stopped being shared once the table filled")
	}
}
