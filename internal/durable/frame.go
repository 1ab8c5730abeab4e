// Package durable is the one implementation of the framed line logs
// in this repository — the sweep's shard files, the streaming
// service's ingest journal, and the root's report log. It owns the
// line frame, recovery of a log image against the line count a claim
// covers, buffered appends, and whole-file replacement. A claim lives
// either in a manifest replaced by WriteAtomic (the sweep store) or in
// the append-only claim log of a ClaimedLogs set (the journal and the
// root log); callers keep what a line means and their manifest.
//
// Every caller keeps one contract: a claim covers lines only after
// they are written, and every acknowledgement sits inside a claim. So
// damage inside the claim is corruption (acknowledged data is gone)
// and damage past it is a torn tail nobody was promised.
//
// A Log's appends stay in memory until its Flush, which writes them
// to the file in one write(2) call; only a log that collects more
// than about 60 KB between flushes writes early, in pieces of that
// size. So a journal ack costs one write per log it touched, plus the
// claim line.
//
// Durable means surviving a process kill, not an OS crash or power
// loss: nothing calls fsync (FORMAT.md, "Failure model").
//
// The line frame (artifact format v2, byte-level spec in FORMAT.md) is
//
//	crc32c(payload) as 8 lowercase hex digits, one space, payload, '\n'
//
// so a damaged line fails its own checksum without poisoning its
// neighbours. Whole files and documents are content-hashed with
// SHA-256, written as 64 lowercase hex digits (SHA256Hex): the sweep
// manifest's shard sums, the serve snapshot's hash, the root's epoch
// report seal and the fleet's upload check.
package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
)

// frameHeader is the fixed per-line overhead before the payload: 8 hex
// digits plus the separating space.
const frameHeader = 9

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed line to b and returns the extended
// slice: it reserves the header, lets payload append the payload after
// it, then patches in the crc32c of exactly those bytes and appends the
// newline, so Log.Append frames without copying the payload.
func appendFrame(b []byte, payload func([]byte) []byte) []byte {
	start := len(b)
	b = append(b, "00000000 "...)
	b = payload(b)
	const digits = "0123456789abcdef"
	crc := crc32.Checksum(b[start+frameHeader:], crcTable)
	for i := frameHeader - 2; i >= 0; i-- {
		b[start+i] = digits[crc&0xf]
		crc >>= 4
	}
	return append(b, '\n')
}

// FramePayload returns payload as one framed line, newline included.
func FramePayload(payload []byte) []byte {
	line := make([]byte, 0, frameHeader+len(payload)+1)
	return appendFrame(line, func(b []byte) []byte { return append(b, payload...) })
}

// Unframe validates one framed line (without its newline) and returns
// its payload. It checks the frame shape (header length, lowercase hex,
// separator) and the CRC; what the payload means is the caller's to
// check.
func Unframe(line []byte) ([]byte, error) {
	if len(line) < frameHeader || line[frameHeader-1] != ' ' {
		return nil, fmt.Errorf("framing: line is not 'crc32c payload'")
	}
	var crc uint32
	for _, c := range line[:frameHeader-1] {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return nil, fmt.Errorf("framing: header is not lowercase hex")
		}
		crc = crc<<4 | d
	}
	payload := line[frameHeader:]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("framing: payload crc32c %08x, line claims %08x", got, crc)
	}
	return payload, nil
}

// SHA256Hex is the content hash of data: SHA-256, lowercase hex.
func SHA256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IsSHA256Hex reports whether s is a well-formed SHA256Hex digest.
func IsSHA256Hex(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
