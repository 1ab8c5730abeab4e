package durable

import (
	"fmt"
	"os"
	"sync"
)

// logBufSize is the capacity of a Log's write buffer: room for a
// whole ack of a couple of hundred journal lines. spillAt is the fill
// at which Append writes the buffer out before Flush, so a log
// appended to for long between flushes (a sweep shard between
// checkpoints) holds a bounded amount; the headroom lets a typical
// line land without outgrowing the buffer.
const (
	logBufSize = 32 << 10
	spillAt    = logBufSize - 4<<10
)

// freeBufs keeps up to maxFreeBufs idle write buffers for any Log to
// reuse. A Log takes one at its first Append after a write-out and
// gives it back when Flush or Truncate empties it, so a log with
// nothing pending holds no buffer, and a process that opens and closes
// logs (a service restarted, a sweep resumed) allocates buffers once.
// Unlike a sync.Pool, a collection does not empty it.
var freeBufs struct {
	sync.Mutex
	bufs []*[logBufSize]byte
}

const maxFreeBufs = 16

// takeBuf returns an empty write buffer of capacity logBufSize.
func takeBuf() []byte {
	freeBufs.Lock()
	defer freeBufs.Unlock()
	n := len(freeBufs.bufs)
	if n == 0 {
		return new([logBufSize]byte)[:0]
	}
	b := freeBufs.bufs[n-1]
	freeBufs.bufs = freeBufs.bufs[:n-1]
	return b[:0]
}

// giveBuf keeps b for reuse, unless a line too long for it made Append
// grow a larger one, or enough buffers are kept already.
func giveBuf(b []byte) {
	if cap(b) != logBufSize {
		return
	}
	freeBufs.Lock()
	defer freeBufs.Unlock()
	if len(freeBufs.bufs) < maxFreeBufs {
		freeBufs.bufs = append(freeBufs.bufs, (*[logBufSize]byte)(b[:logBufSize]))
	}
}

// Log is a buffered, framed append file inside a Dir. Appends collect
// in memory and reach the file in one write at Flush, or earlier once
// spillAt bytes are pending, so an owner acks nothing before the Flush
// covering it returns. Failures break the Dir.
type Log struct {
	d    *Dir
	name string
	f    *os.File
	buf  []byte // pending lines; nil when none are
}

// OpenLog opens name for appending, creating it if needed. An owner
// that recovered the image drops its torn tail with Truncate first.
// It allocates no buffer.
func (d *Dir) OpenLog(name string) (*Log, error) {
	f, err := os.OpenFile(d.Path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening %s: %w", name, err)
	}
	return &Log{d: d, name: name, f: f}, nil
}

// Append frames one line straight into the write buffer — payload
// appends the line's payload to the slice it is given, uncopied — and
// returns the framed line, valid until the next Append or Flush.
func (l *Log) Append(payload func([]byte) []byte) ([]byte, error) {
	if err := l.d.begin("append", l.name); err != nil {
		return nil, err
	}
	if l.buf == nil {
		l.buf = takeBuf()
	}
	start := len(l.buf)
	l.buf = appendFrame(l.buf, payload)
	line := l.buf[start:]
	if len(l.buf) >= spillAt {
		if err := l.write(); err != nil {
			return nil, err
		}
		l.buf = l.buf[:0]
	}
	return line, nil
}

// write writes the pending lines to the file in one call.
func (l *Log) write() error {
	if _, err := l.f.Write(l.buf); err != nil {
		return l.d.fail(fmt.Errorf("durable: appending to %s: %w", l.name, err))
	}
	return nil
}

// release drops the pending lines and gives the buffer back.
func (l *Log) release() {
	if l.buf != nil {
		giveBuf(l.buf)
		l.buf = nil
	}
}

// Flush writes the buffered lines to the file.
func (l *Log) Flush() error {
	if l.d.err != nil {
		return l.d.err
	}
	if l.buf == nil {
		return nil
	}
	if len(l.buf) > 0 {
		if err := l.write(); err != nil {
			return err
		}
	}
	l.release()
	return nil
}

// Truncate discards the buffered lines and cuts the file to its first
// keep bytes; later appends continue from there.
func (l *Log) Truncate(keep int64) error {
	l.release()
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
