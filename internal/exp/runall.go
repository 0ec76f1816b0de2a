package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"addict/internal/pool"
	"addict/internal/sched"
	"addict/internal/sweep"
)

// RunAll executes every experiment serially, in presentation order, and
// renders the full report — the source of the renderer goldens in
// testdata/. RunAllParallel produces byte-identical output on a worker
// pool; this serial form is kept as the reference implementation the
// determinism tests compare against. Once ctx is cancelled the run stops
// between artifact computations and returns ctx's error; the sections
// already written form a clean prefix of the report.
func RunAll(ctx context.Context, out io.Writer, p Params) error {
	arts := sweep.NewArtifacts(p.Seed, p.Scale, p.ProfileTraces, p.EvalTraces, 1)
	w := NewWorkbenchOn(ctx, p, sweep.NewWorkbench(arts, p.Machine))
	for _, e := range experimentBodies {
		if err := runBody(ctx, e.body, w, out); err != nil {
			return err
		}
	}
	return nil
}

// RunAllParallel executes every experiment of RunAll over an existing
// session cache (see NewWorkbenchOn) and emits a byte-identical report:
// the run reuses — and leaves behind — whatever artifacts the session
// already holds. Independent experiment units — per-workload replays,
// per-figure analyses, the per-(workload, mechanism) simulations behind
// Figures 5/6/8b/9 — run concurrently on up to `workers` goroutines
// (workers < 1 selects runtime.GOMAXPROCS(0)); each renderer writes into a
// private buffer, and buffers stream to out in the exact serial
// presentation order as soon as their section (and every section before
// it) is ready. Determinism holds because every shared artifact is
// single-flight memoized in the session cache and every artifact's content
// is independent of computation order (sharded trace generation,
// deterministic simulation).
//
// Once ctx is cancelled no new experiment unit starts and no further
// section is emitted; in-flight units finish (a simulation replay is not
// divisible) and the call returns ctx's error after the pool drains. The
// sections already written form a clean prefix of the serial report.
func RunAllParallel(ctx context.Context, out io.Writer, p Params, workers int, swb *sweep.Workbench) error {
	workers = pool.NormWorkers(workers)
	w := NewWorkbenchOn(ctx, p, swb)
	fig4Workloads := []string{"TPC-B", "TPC-C"}
	comparisons := make([]Comparison, len(Workloads))
	deep := make([]Fig8aResult, len(Workloads))

	// Jobs run on the pool in submission order; emit steps flush output in
	// the serial presentation order, each as soon as the jobs it waits on
	// have finished. The two orders are independent — single-flight
	// memoization makes artifact content order-free — so jobs are
	// submitted roughly longest-first to pack the pool (warm-up replays,
	// then the heavy per-workload sweeps, then the small trace analyses).
	var jobs []func()
	type emitStep struct {
		wait   func()
		render func(io.Writer)
	}
	var emits []emitStep
	nothing := func() {}

	// done wraps a job so emit steps can wait on its completion: a
	// cancelled run closes the done channel without running the job (the
	// pool stops dispatching), so waiters unblock either way. Cancellation
	// panics inside a job are recovered here — the emission loop aborts
	// before rendering anything the job left half-built.
	done := func(job func()) (func(), func()) {
		ch := make(chan struct{})
		wrapped := func() {
			defer close(ch)
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(cancelPanic); ok {
						return
					}
					panic(r)
				}
			}()
			job()
		}
		wait := func() {
			select {
			case <-ch:
			case <-ctx.Done():
			}
		}
		return wrapped, wait
	}
	// buffered returns a pool job that renders into a private buffer and
	// queues the buffer for in-order emission once the job completes.
	buffered := func(render func(io.Writer)) func() {
		buf := new(bytes.Buffer)
		job, wait := done(func() { render(buf) })
		emits = append(emits, emitStep{wait: wait, render: func(out io.Writer) { out.Write(buf.Bytes()) }})
		return job
	}
	// direct renders cheap, already-computed results at emit time, after
	// waiting for the jobs that compute its inputs.
	direct := func(wait func(), render func(io.Writer)) {
		emits = append(emits, emitStep{wait: wait, render: render})
	}
	// waitAll chains completion waits.
	waitAll := func(waits []func()) func() {
		return func() {
			for _, w := range waits {
				w()
			}
		}
	}
	// each queues one buffered section per workload.
	each := func(names []string, render func(out io.Writer, name string)) []func() {
		js := make([]func(), len(names))
		for i, name := range names {
			js[i] = buffered(func(out io.Writer) { render(out, name) })
		}
		return js
	}

	// Computation jobs whose results feed several renderers.
	compareJobs := make([]func(), len(Workloads))
	compareWaits := make([]func(), len(Workloads))
	for i, name := range Workloads {
		compareJobs[i], compareWaits[i] = done(func() { comparisons[i] = Compare(w, name) })
	}
	deepJobs := make([]func(), len(Workloads))
	deepWaits := make([]func(), len(Workloads))
	for i, name := range Workloads {
		deepJobs[i], deepWaits[i] = done(func() { deep[i] = Fig8a(w, name) })
	}

	// Emission plan, in the serial presentation order.
	direct(nothing, func(out io.Writer) { Table1(out, p.Machine) })
	fig1Job := buffered(func(out io.Writer) { Fig1(w).Render(out) })
	fig2Jobs := each(Workloads, func(out io.Writer, name string) { Fig2(w, name).Render(out) })
	fig3Job := buffered(func(out io.Writer) { Fig3(w).Render(out) })
	fig4Jobs := each(fig4Workloads, func(out io.Writer, name string) { Fig4(w, name).Render(out) })
	direct(waitAll(compareWaits), func(out io.Writer) { Fig5Render(out, comparisons) })
	direct(nothing, func(out io.Writer) { Fig6Render(out, comparisons) })
	fig7Jobs := each(Workloads, func(out io.Writer, name string) { Fig7(w, name).Render(out) })
	direct(waitAll(deepWaits), func(out io.Writer) { Fig8aRender(out, deep) })
	direct(nothing, func(out io.Writer) { Fig8bRender(out, comparisons) })
	direct(nothing, func(out io.Writer) { Fig9Render(out, comparisons) })
	ablateJobs := each(Workloads, func(out io.Writer, name string) { Ablate(w, name).Render(out) })
	// Synthetic characterization fans out per scenario (each is a full
	// generate+profile+4-replay unit) and renders from the assembled rows.
	synthNames := SynthWorkloads()
	synthRows := make([]SynthCharRow, len(synthNames))
	synthJobs := make([]func(), len(synthNames))
	synthWaits := make([]func(), len(synthNames))
	for i, name := range synthNames {
		synthJobs[i], synthWaits[i] = done(func() { synthRows[i] = synthCharRow(w, name) })
	}
	direct(waitAll(synthWaits), func(out io.Writer) { SynthCharResult{Rows: synthRows}.Render(out) })

	// Execution plan. Warm-up units first: the per-(workload, mechanism)
	// replays are the shared dependencies of everything below, so
	// computing them as their own units keeps the heavy consumers from
	// blocking on each other's single-flight computations. The cheap
	// early-presentation sections (Figures 1-4) come next so the report
	// starts streaming while the heavy sweeps still run.
	for _, name := range Workloads {
		for _, mech := range sched.Mechanisms {
			warm, _ := done(func() { w.Result(name, mech) })
			jobs = append(jobs, warm)
		}
	}
	for _, js := range [][]func(){{fig1Job}, fig2Jobs, {fig3Job}, fig4Jobs, fig7Jobs, ablateJobs, synthJobs, deepJobs, compareJobs} {
		jobs = append(jobs, js...)
	}

	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		_ = pool.Run(ctx, workers, len(jobs), func(i int) { jobs[i]() })
	}()
	for _, emit := range emits {
		emit.wait()
		if err := ctx.Err(); err != nil {
			<-poolDone // in-flight units drain; undispatched ones never start
			return err
		}
		emit.render(out)
	}
	<-poolDone // warm-up jobs may still be draining after the last section
	return ctx.Err()
}

// experimentBodies lists every experiment's render body over a workbench,
// in the report's presentation order — the single definition the serial
// report (RunAll), single-experiment runs (RunExperiment), and the id
// listing (IDs) share.
var experimentBodies = []struct {
	id   string
	body func(w *Workbench, out io.Writer)
}{
	{"table1", func(w *Workbench, out io.Writer) { Table1(out, w.P.Machine) }},
	{"fig1", func(w *Workbench, out io.Writer) { Fig1(w).Render(out) }},
	{"fig2", func(w *Workbench, out io.Writer) {
		for _, name := range Workloads {
			Fig2(w, name).Render(out)
		}
	}},
	{"fig3", func(w *Workbench, out io.Writer) { Fig3(w).Render(out) }},
	{"fig4", func(w *Workbench, out io.Writer) {
		for _, name := range []string{"TPC-B", "TPC-C"} {
			Fig4(w, name).Render(out)
		}
	}},
	{"fig5", func(w *Workbench, out io.Writer) { Fig5Render(out, compareAll(w)) }},
	{"fig6", func(w *Workbench, out io.Writer) { Fig6Render(out, compareAll(w)) }},
	{"fig7", func(w *Workbench, out io.Writer) {
		for _, name := range Workloads {
			Fig7(w, name).Render(out)
		}
	}},
	{"fig8a", func(w *Workbench, out io.Writer) {
		var rs []Fig8aResult
		for _, name := range Workloads {
			rs = append(rs, Fig8a(w, name))
		}
		Fig8aRender(out, rs)
	}},
	{"fig8b", func(w *Workbench, out io.Writer) { Fig8bRender(out, compareAll(w)) }},
	{"fig9", func(w *Workbench, out io.Writer) { Fig9Render(out, compareAll(w)) }},
	{"ablations", func(w *Workbench, out io.Writer) {
		for _, name := range Workloads {
			Ablate(w, name).Render(out)
		}
	}},
	{"synthchar", func(w *Workbench, out io.Writer) { SynthChar(w).Render(out) }},
}

// IDs lists the experiment ids, sorted.
func IDs() []string {
	ids := make([]string, len(experimentBodies))
	for i, e := range experimentBodies {
		ids[i] = e.id
	}
	sort.Strings(ids)
	return ids
}

// RunExperiment runs one experiment by id over an existing session cache
// (see NewWorkbenchOn) — the facade Engine's single-experiment path. A
// cancelled run stops between artifact computations and returns ctx's
// error.
func RunExperiment(ctx context.Context, id string, out io.Writer, p Params, swb *sweep.Workbench) error {
	for _, e := range experimentBodies {
		if e.id == id {
			return runBody(ctx, e.body, NewWorkbenchOn(ctx, p, swb), out)
		}
	}
	return fmt.Errorf("exp: unknown experiment %q", id)
}

// compareAll assembles the per-workload mechanism comparisons Figures 5,
// 6, 8b, and 9 share.
func compareAll(w *Workbench) []Comparison {
	var cs []Comparison
	for _, name := range Workloads {
		cs = append(cs, Compare(w, name))
	}
	return cs
}

// runBody executes a render body, recovering a cancellation unwind into
// the returned error.
func runBody(ctx context.Context, body func(w *Workbench, out io.Writer), w *Workbench, out io.Writer) (err error) {
	defer recoverCancel(&err)
	body(w, out)
	return ctx.Err()
}
