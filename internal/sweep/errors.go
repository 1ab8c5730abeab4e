package sweep

import (
	"fmt"
	"time"

	"neutrality/internal/errkind"
)

// CellTimeoutError reports a cell whose emulation exceeded
// Options.CellTimeout. It is a named, resumable condition: the
// checkpoint keeps every cell before it, so a resume (with a larger —
// or no — timeout) re-executes exactly the timed-out cell onward. It
// matches errors.Is(err, errkind.Incomplete).
type CellTimeoutError struct {
	// Cell is the global index of the cell that timed out.
	Cell int
	// Timeout is the per-cell deadline that was exceeded.
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("cell %d exceeded the per-cell timeout %s (resume re-runs it; raise -cell-timeout if the cell is legitimately slow)", e.Cell, e.Timeout)
}

func (e *CellTimeoutError) Unwrap() error { return errkind.Incomplete }
