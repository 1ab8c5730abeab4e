package durable

import (
	"bytes"
	"fmt"
)

// Recover checks a log image against the claimed line count and
// returns the byte offset each adopted line ends at, handing every
// unframed payload to parse (nil accepts any) in order. Inside the
// claim a bad, partial or missing line is an error — the claim covers
// acknowledged data. Past it, lines are adopted until the first that
// fails; the rest is a torn tail the caller truncates (Log.Truncate).
func Recover(data []byte, claimed int, parse func(payload []byte) error) ([]int64, error) {
	var ends []int64
	off := 0
	for len(ends) < claimed || off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			if len(ends) < claimed {
				return nil, fmt.Errorf("truncated inside the claimed %d lines (%d survive)", claimed, len(ends))
			}
			break
		}
		payload, err := Unframe(data[off : off+nl])
		if err == nil && parse != nil {
			err = parse(payload)
		}
		if err != nil {
			if len(ends) < claimed {
				return nil, fmt.Errorf("line %d (within the claimed %d): %v", len(ends)+1, claimed, err)
			}
			break
		}
		off += nl + 1
		ends = append(ends, int64(off))
	}
	return ends, nil
}
