package durable

import (
	"bufio"
	"fmt"
	"os"
)

// Log is a buffered, framed append file inside a Dir. Appends reach
// the file at Flush (or when the buffer fills), so an owner acks
// nothing before the Flush covering it returns. Failures break the Dir.
type Log struct {
	d    *Dir
	name string
	f    *os.File
	w    *bufio.Writer
}

// OpenLog opens name for appending, creating it if needed. An owner
// that recovered the image drops its torn tail with Truncate first.
func (d *Dir) OpenLog(name string) (*Log, error) {
	f, err := os.OpenFile(d.Path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening %s: %w", name, err)
	}
	return &Log{d: d, name: name, f: f, w: bufio.NewWriter(f)}, nil
}

// Append frames one line straight into the write buffer — payload
// appends the line's payload to the slice it is given, uncopied — and
// returns the framed line, valid until the next Append.
func (l *Log) Append(payload func([]byte) []byte) ([]byte, error) {
	if err := l.d.begin("append", l.name); err != nil {
		return nil, err
	}
	line := appendFrame(l.w.AvailableBuffer(), payload)
	if _, err := l.w.Write(line); err != nil {
		return nil, l.d.fail(fmt.Errorf("durable: appending to %s: %w", l.name, err))
	}
	return line, nil
}

// Flush writes the buffered lines to the file.
func (l *Log) Flush() error {
	if l.d.err != nil {
		return l.d.err
	}
	if err := l.w.Flush(); err != nil {
		return l.d.fail(fmt.Errorf("durable: flushing %s: %w", l.name, err))
	}
	return nil
}

// Truncate discards the buffered lines and cuts the file to its first
// keep bytes; later appends continue from there.
func (l *Log) Truncate(keep int64) error {
	l.w.Reset(l.f)
	if err := l.d.begin("truncate", l.name); err != nil {
		return err
	}
	if err := l.f.Truncate(keep); err != nil {
		return l.d.fail(fmt.Errorf("durable: truncating %s: %w", l.name, err))
	}
	return nil
}

// Close flushes and closes the file; a broken Dir's log closes
// without flushing and reports the latched error.
func (l *Log) Close() error {
	err := l.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
