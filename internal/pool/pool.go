package pool

import (
	"context"
	"runtime"
	"sync"
)

// NormWorkers applies the engine-wide worker-count convention: values below
// 1 select runtime.GOMAXPROCS(0). Every public parallel entry point (the
// facade, the cmds, the experiment and sweep runners) routes through this
// one helper so the convention cannot drift between layers.
func NormWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run invokes fn(0), fn(1), ... fn(n-1) on up to `workers` goroutines and
// returns once every dispatched call has finished. Indices are handed out
// in order, so earlier (typically longer-running) units start first;
// workers <= 1 runs inline. Panics inside fn propagate (fail fast). Once
// ctx is cancelled no new index is handed out and the call returns
// ctx.Err() (nil when every index ran); an fn already running completes,
// so fn never observes a half-executed unit.
func Run(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
	cancelled := false
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			cancelled = true
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if cancelled {
		return ctx.Err()
	}
	return nil
}
