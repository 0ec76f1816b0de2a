// Package pool provides the bounded worker pool (Run, with cooperative
// context cancellation) and the error-aware single-flight
// memoization map (Flight) shared by the parallel experiment engine
// (internal/exp), the parameter-sweep engine (internal/sweep), sharded
// trace generation (internal/workload), and the session facade (package
// addict, the Engine).
//
// It has no counterpart in the paper: it exists so the Section 4 evaluation
// — and the sensitivity sweeps built on top of it — can run on a worker
// pool while staying byte-identical to a serial run, and so a Ctrl-C (or
// any context cancellation) unwinds every pipeline between work items.
package pool
