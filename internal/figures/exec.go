package figures

import (
	"context"
)

// Exec configures how an artifact executes: a context for cancelling
// it between experiment units and mid-emulation, and the width of the
// worker pool the units fan out across. Every artifact that emulates or
// fans out takes one; the zero value means a background context and one
// worker per CPU.
//
// Determinism: every sweep in this package derives each unit's seed
// from (baseSeed, unitIndex) and collects results in unit order, so the
// output is bit-identical for every Workers setting.
type Exec struct {
	// Ctx cancels the sweep (nil = context.Background()): pending units
	// are not started, and in-flight emulations abort mid-run (the
	// event loop polls the context between batches).
	Ctx context.Context
	// Workers bounds the worker pool (0 = runtime.NumCPU()).
	Workers int
}

func (x Exec) context() context.Context {
	if x.Ctx == nil {
		return context.Background()
	}
	return x.Ctx
}
