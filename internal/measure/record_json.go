package measure

import (
	"encoding/json"
	"strconv"
)

// JSON codec for StreamRecord, the per-record wire and journal format.
// Records cross the ingest path one at a time — decoded from every HTTP
// line, re-encoded into every journal line, decoded again on replay —
// so the codec handles the one shape that matters without reflection:
//
//	{"source":"…","seq":N,"interval":N,"path":N,"sent":N,"lost":N}
//
// in exactly this key order, with no whitespace, no string escapes and
// plain integers. That is the shape encoding/json itself writes for a
// plain source name, and the shape well-behaved senders emit. Anything
// else defers to encoding/json, so the bytes written and the values
// and errors read are encoding/json's by construction; the fuzz tests
// in record_json_test.go hold both directions to that.

// AppendStreamRecordJSON appends the JSON encoding of r to b and
// returns the extended slice. The appended bytes equal json.Marshal(r).
func AppendStreamRecordJSON(b []byte, r *StreamRecord) []byte {
	b = append(b, `{"source":`...)
	if plainString(r.Source) {
		b = append(b, '"')
		b = append(b, r.Source...)
		b = append(b, '"')
	} else {
		// encoding/json's escaping (HTML-safe <>&, U+2028/U+2029,
		// U+FFFD for invalid UTF-8) is the canonical form. Marshaling a
		// string cannot fail.
		s, _ := json.Marshal(r.Source)
		b = append(b, s...)
	}
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, r.Seq, 10)
	b = append(b, `,"interval":`...)
	b = strconv.AppendInt(b, int64(r.Interval), 10)
	b = append(b, `,"path":`...)
	b = strconv.AppendInt(b, int64(r.Path), 10)
	b = append(b, `,"sent":`...)
	b = strconv.AppendInt(b, int64(r.Sent), 10)
	b = append(b, `,"lost":`...)
	b = strconv.AppendInt(b, int64(r.Lost), 10)
	return append(b, '}')
}

// DecodeStreamRecord decodes one JSON-encoded record. It accepts and
// rejects exactly what json.Unmarshal into a zero StreamRecord does,
// with the same values; only the canonical shape skips reflection.
func DecodeStreamRecord(data []byte) (StreamRecord, error) {
	if r, ok := decodeCanonical(data); ok {
		return r, nil
	}
	var r StreamRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return StreamRecord{}, err
	}
	return r, nil
}

// plainString reports whether json.Marshal writes s verbatim between
// quotes: printable ASCII with none of `"\<>&`.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// decodeCanonical parses the canonical record shape, reporting false
// for any input that is not exactly that shape (which is not to say
// the input is invalid JSON — the caller falls back to encoding/json).
func decodeCanonical(d []byte) (r StreamRecord, ok bool) {
	const head = `{"source":"`
	if !hasPrefix(d, head) {
		return r, false
	}
	d = d[len(head):]
	i := 0
	// Printable ASCII other than the quote and the escape character
	// decodes to itself.
	for i < len(d) && d[i] >= 0x20 && d[i] < 0x7f && d[i] != '"' && d[i] != '\\' {
		i++
	}
	if i == len(d) || d[i] != '"' {
		return r, false
	}
	source := d[:i]
	d = d[i+1:]
	var v [5]int64
	for k, key := range [5]string{`,"seq":`, `,"interval":`, `,"path":`, `,"sent":`, `,"lost":`} {
		if v[k], d, ok = canonicalInt(d, key); !ok {
			return r, false
		}
	}
	if len(d) != 1 || d[0] != '}' {
		return r, false
	}
	for _, x := range v[1:] {
		if int64(int(x)) != x {
			return r, false // overflows int: encoding/json reports it
		}
	}
	return StreamRecord{
		Source:   string(source),
		Seq:      v[0],
		Interval: int(v[1]),
		Path:     int(v[2]),
		Sent:     int(v[3]),
		Lost:     int(v[4]),
	}, true
}

// canonicalInt parses key followed by a plain JSON integer — an
// optional minus sign, then 0 or a digit string without a leading
// zero, at most 18 digits so it cannot overflow int64 — and returns
// the value and the rest of d. "-0", fractions and exponents are valid
// JSON but not canonical: they report false here, or fail the next
// key's prefix check.
func canonicalInt(d []byte, key string) (int64, []byte, bool) {
	if !hasPrefix(d, key) {
		return 0, d, false
	}
	d = d[len(key):]
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		d = d[1:]
	}
	n := 0
	for n < len(d) && d[n] >= '0' && d[n] <= '9' {
		n++
	}
	if n == 0 || n > 18 || (d[0] == '0' && (n > 1 || neg)) {
		return 0, d, false
	}
	var v int64
	for _, c := range d[:n] {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, d[n:], true
}

func hasPrefix(d []byte, s string) bool {
	return len(d) >= len(s) && string(d[:len(s)]) == s
}
