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
	b = AppendJSONString(b, r.Source)
	b = append(b, `,"seq":`...)
	b = AppendInt(b, r.Seq)
	b = append(b, `,"interval":`...)
	b = AppendInt(b, int64(r.Interval))
	b = append(b, `,"path":`...)
	b = AppendInt(b, int64(r.Path))
	b = append(b, `,"sent":`...)
	b = AppendInt(b, int64(r.Sent))
	b = append(b, `,"lost":`...)
	b = AppendInt(b, int64(r.Lost))
	return append(b, '}')
}

// AppendInt appends v in decimal: exactly strconv.AppendInt(b, v, 10).
// Values from 0 to 9,999 — nearly every count, path and interval a
// record or a table row carries — are written two digits at a time
// from digitPairs instead of through strconv's scratch buffer.
func AppendInt(b []byte, v int64) []byte {
	switch {
	case v < 0 || v >= 10000:
		return strconv.AppendInt(b, v, 10)
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, digitPairs[2*v], digitPairs[2*v+1])
	case v < 1000:
		lo := v % 100
		return append(b, byte('0'+v/100), digitPairs[2*lo], digitPairs[2*lo+1])
	}
	hi, lo := v/100, v%100
	return append(b, digitPairs[2*hi], digitPairs[2*hi+1], digitPairs[2*lo], digitPairs[2*lo+1])
}

// digitPairs holds the two decimal digits of 0..99 at 2n, 2n+1.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendJSONString appends s as a JSON string to b: exactly the bytes
// json.Marshal(s) writes.
func AppendJSONString(b []byte, s string) []byte {
	if !plainString(s) {
		// encoding/json's escaping (HTML-safe <>&, U+2028/U+2029,
		// U+FFFD for invalid UTF-8) is the canonical form. Marshaling a
		// string cannot fail.
		q, _ := json.Marshal(s)
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeStreamRecord decodes one JSON-encoded record. It accepts and
// rejects exactly what json.Unmarshal into a zero StreamRecord does,
// with the same values; only the canonical shape skips reflection.
func DecodeStreamRecord(data []byte) (StreamRecord, error) {
	return (*SourceNames)(nil).Decode(data)
}

// Bounds of a SourceNames table: a name longer than MaxSourceNameLen
// bytes, or first seen once the table holds MaxSourceNames, is not
// kept, so a table pins at most a few hundred KB whatever it decodes.
const (
	MaxSourceNames   = 4096
	MaxSourceNameLen = 64
)

// SourceNames is a bounded table of the source names a decoder has
// seen, so a record whose source was seen before reuses its string
// instead of allocating one. The zero value is an empty table; a nil
// table keeps nothing. It is not safe for concurrent use.
type SourceNames struct {
	m map[string]string
}

// Len returns how many names the table holds.
func (n *SourceNames) Len() int { return len(n.m) }

// Decode decodes like DecodeStreamRecord, with the same values and
// errors, taking the source string of a canonical line from the table.
func (n *SourceNames) Decode(data []byte) (StreamRecord, error) {
	if r, ok := decodeCanonical(data, n); ok {
		return r, nil
	}
	var r StreamRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return StreamRecord{}, err
	}
	return r, nil
}

// name returns b as a string, from the table when it holds b, and
// keeps a new name while the table has room.
func (n *SourceNames) name(b []byte) string {
	if n == nil || len(b) > MaxSourceNameLen {
		return string(b)
	}
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(n.m) < MaxSourceNames {
		if n.m == nil {
			n.m = make(map[string]string, 64)
		}
		n.m[s] = s
	}
	return s
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
// The source string comes from names.
func decodeCanonical(d []byte, names *SourceNames) (r StreamRecord, ok bool) {
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
		Source:   names.name(source),
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
