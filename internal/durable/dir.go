package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// tmpSuffix ends every temp name WriteAtomic creates, and every one
// earlier builds wrote, so Open can recognise leftovers.
const tmpSuffix = ".tmp"

// Dir is a handle on one directory of durable files. Every write
// through it — a Log append, flush or truncate, WriteAtomic, Remove —
// shares one latch: the first failure breaks the Dir and every later
// write returns that error, since the files may now disagree with what
// their owner believes. A Dir is not safe for concurrent use.
type Dir struct {
	path string
	// Failpoint is the package's one test seam: when non-nil it runs
	// before each Log.Append, Log.Truncate, WriteAtomic and Remove with
	// the operation ("append", "truncate", "write", "remove") and file
	// name, and its error refuses the operation untouched — without
	// breaking the Dir.
	Failpoint func(op, name string) error
	err       error
}

// At returns a handle on path without touching the disk. Use it where
// other writers may share the directory; a single owner uses Open.
func At(path string) *Dir { return &Dir{path: path} }

// Open creates path if needed and removes the temp files a process
// killed between write and rename left behind. Only a directory's
// single owner may call it: a concurrent writer's temp file looks
// exactly like a leftover.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(path, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("durable: removing leftover temp file: %w", err)
			}
		}
	}
	return &Dir{path: path}, nil
}

// Path returns the path of name inside the directory.
func (d *Dir) Path(name string) string { return filepath.Join(d.path, name) }

// begin admits one write: a broken Dir refuses with its latched error,
// then the failpoint may refuse.
func (d *Dir) begin(op, name string) error {
	if d.err != nil {
		return d.err
	}
	if d.Failpoint != nil {
		return d.Failpoint(op, name)
	}
	return nil
}

// fail latches err as the Dir's first failure and returns it.
func (d *Dir) fail(err error) error {
	d.err = err
	return err
}

// WriteAtomic replaces name with data through a temp file, unique to
// the call, in the same directory (mode 0644) renamed over name, so a
// kill leaves the old file or the new one, never a torn one. A failed
// write removes its temp file.
func (d *Dir) WriteAtomic(name string, data []byte) error {
	if err := d.begin("write", name); err != nil {
		return err
	}
	f, err := os.CreateTemp(d.path, name+".*"+tmpSuffix)
	if err != nil {
		return d.fail(fmt.Errorf("durable: writing %s: %w", name, err))
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), d.Path(name))
	}
	if err != nil {
		os.Remove(f.Name())
		return d.fail(fmt.Errorf("durable: writing %s: %w", name, err))
	}
	return nil
}

// WriteJSON writes v as indented JSON plus a newline through
// WriteAtomic — the form every manifest takes.
func (d *Dir) WriteJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: encoding %s: %w", name, err)
	}
	return d.WriteAtomic(name, append(data, '\n'))
}

// Remove deletes name; a file that is already gone is not an error.
func (d *Dir) Remove(name string) error {
	if err := d.begin("remove", name); err != nil {
		return err
	}
	if err := os.Remove(d.Path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return d.fail(fmt.Errorf("durable: %w", err))
	}
	return nil
}
