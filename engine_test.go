package addict

import (
	"bytes"
	"context"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"addict/internal/exp"
	"addict/internal/sweep"
)

// tinyEngine returns a session at micro sizes shared by the tests here.
func tinyEngine(workers int) *Engine {
	return NewEngine(WithSeed(5), WithScale(0.05), WithTraceWindows(60, 60, 80), WithWorkers(workers))
}

// TestExperimentIDsSorted is the regression test for the map-iteration-
// order bug: the ids must come back sorted, every call.
func TestExperimentIDsSorted(t *testing.T) {
	for i := 0; i < 10; i++ {
		ids := ExperimentIDs()
		if !sort.StringsAreSorted(ids) {
			t.Fatalf("ExperimentIDs() not sorted: %v", ids)
		}
		if len(ids) < 12 {
			t.Fatalf("only %d ids", len(ids))
		}
	}
}

// TestEngineSweepMatchesSweepRun: Engine.Sweep (session cache, inherited
// base) and the bare execution path (sweep.Run over a fresh cache) must
// emit byte-identical output for the same grid in every format.
func TestEngineSweepMatchesSweepRun(t *testing.T) {
	spec := SweepSpec{
		Seed: 7, Scale: 0.05, ProfileTraces: 40, EvalTraces: 40,
		Workloads:  []string{"TPC-B"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		Threads:    []int{2, 4},
	}
	ctx := context.Background()
	for _, format := range []string{"table", "csv", "jsonl"} {
		var direct, session bytes.Buffer
		em, err := sweep.NewEmitter(format, &direct)
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.Run(ctx, spec, em, 2, nil); err != nil {
			t.Fatal(err)
		}
		if err := NewEngine(WithWorkers(2)).Sweep(ctx, &session, spec, format); err != nil {
			t.Fatal(err)
		}
		if direct.Len() == 0 {
			t.Fatalf("%s: empty sweep output", format)
		}
		if !bytes.Equal(direct.Bytes(), session.Bytes()) {
			t.Errorf("%s: sweep.Run and Engine.Sweep diverge", format)
		}
	}
}

// TestEngineExperimentsMatchSerialRunAll: Engine.Experiments renders on
// the session cache and worker pool; its full report, and single
// experiments rendered by id, must be byte-identical to the serial
// reference report (exp.RunAll) on the same parameters.
func TestEngineExperimentsMatchSerialRunAll(t *testing.T) {
	e := tinyEngine(2)
	ctx := context.Background()

	var serial bytes.Buffer
	if err := exp.RunAll(ctx, &serial, e.ExperimentParams()); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("serial reference report is empty")
	}

	// The report opens with Table 1 then Figure 1, so the two rendered by
	// id must be exactly its prefix.
	var byID bytes.Buffer
	if err := e.Experiments(ctx, &byID, "table1", "fig1"); err != nil {
		t.Fatal(err)
	}
	if byID.Len() == 0 || !bytes.HasPrefix(serial.Bytes(), byID.Bytes()) {
		t.Error("Engine.Experiments(table1, fig1) diverges from the serial report")
	}

	var full bytes.Buffer
	if err := tinyEngine(4).Experiments(ctx, &full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), full.Bytes()) {
		t.Error("Engine.Experiments full report diverges from serial exp.RunAll")
	}
}

// TestEngineSessionReuse: repeated calls on one session must return the
// identical cached artifacts (pointer equality), and mixed entry points
// must agree.
func TestEngineSessionReuse(t *testing.T) {
	e := tinyEngine(2)
	ctx := context.Background()

	t1, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("Traces not cached across calls")
	}
	p1, err := e.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Profile not cached across calls")
	}
	r, err := e.Schedule(ctx, ADDICT, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.ScheduleAll(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if all[ADDICT].Makespan != r.Makespan {
		t.Error("ScheduleAll does not reuse the cached Schedule result")
	}

	// The profiling and evaluation windows must stay disjoint.
	ps, err := e.ProfilingTraces(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if ps == t1 || ps.Digest() == t1.Digest() {
		t.Error("profiling window aliases the evaluation window")
	}
}

// TestEngineConcurrentUse hammers one session from many goroutines across
// entry points — the -race stress of the session cache. Every goroutine
// must observe the same artifact pointers and identical results.
func TestEngineConcurrentUse(t *testing.T) {
	e := tinyEngine(4)
	ctx := context.Background()
	names := []string{"TPC-B", "TPC-C"}

	const goroutines = 12
	type view struct {
		set      *TraceSet
		makespan uint64
		sweepOut []byte
	}
	views := make([]view, goroutines)
	errs := make([]error, goroutines)
	spec := SweepSpec{
		Seed: 5, Scale: 0.05, ProfileTraces: 60, EvalTraces: 60,
		Workloads: []string{"TPC-B"}, Mechanisms: []string{"Baseline"},
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%len(names)]
			set, err := e.Traces(ctx, name)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := e.Schedule(ctx, Mechanisms[g%len(Mechanisms)], name)
			if err != nil {
				errs[g] = err
				return
			}
			var buf bytes.Buffer
			if err := e.Sweep(ctx, &buf, spec, "csv"); err != nil {
				errs[g] = err
				return
			}
			views[g] = view{set: set, makespan: res.Makespan, sweepOut: buf.Bytes()}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := range views {
		// Goroutine g%len(names) requested the same workload: one cached
		// instance must serve both.
		if views[g].set != views[g%len(names)].set {
			t.Errorf("goroutine %d saw a different trace-set instance", g)
		}
		if !bytes.Equal(views[g].sweepOut, views[0].sweepOut) {
			t.Errorf("goroutine %d saw different sweep bytes", g)
		}
		// Goroutine g+8 hit the same (workload, mechanism) cell.
		if h := g + len(names)*len(Mechanisms); h < goroutines && views[g].makespan != views[h].makespan {
			t.Errorf("goroutines %d/%d disagree on makespan: %d vs %d", g, h, views[g].makespan, views[h].makespan)
		}
	}
}

// TestEngineCancellation: a cancelled context aborts Engine pipelines with
// its error, and — because failed computations are evicted, never cached —
// the same session then serves a live context normally.
func TestEngineCancellation(t *testing.T) {
	e := tinyEngine(2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.Traces(cancelled, "TPC-B"); err == nil {
		t.Fatal("Traces with a cancelled context returned nil error")
	}
	var buf bytes.Buffer
	if err := e.Sweep(cancelled, &buf, SweepSpec{Workloads: []string{"TPC-B"}}, "csv"); err == nil {
		t.Fatal("Sweep with a cancelled context returned nil error")
	}
	if err := e.Experiments(cancelled, &buf, "fig1"); err == nil {
		t.Fatal("Experiments with a cancelled context returned nil error")
	}

	// The cancelled attempts must not have poisoned the session cache.
	ctx := context.Background()
	set, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatalf("session poisoned by cancelled call: %v", err)
	}
	if len(set.Traces) != 60 {
		t.Fatalf("got %d traces, want 60", len(set.Traces))
	}
	if _, err := e.Schedule(ctx, Baseline, "TPC-B"); err != nil {
		t.Fatalf("Schedule after cancelled calls: %v", err)
	}
}

// TestEngineCancellationIsPrompt: cancelling mid-run must abort a long
// pipeline well before it would complete.
func TestEngineCancellationIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	e := NewEngine(WithSeed(9), WithScale(0.5), WithTraceWindows(2000, 2000, 0), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.Traces(ctx, "TPC-C") // far more work than 150ms allows
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled generation returned nil error")
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// TestEngineUnknownNames: every by-name entry point funnels through the
// one registry, so unknown names fail uniformly.
func TestEngineUnknownNames(t *testing.T) {
	e := tinyEngine(1)
	ctx := context.Background()
	if _, err := e.Traces(ctx, "nope"); err == nil {
		t.Error("Traces accepted an unknown name")
	}
	if _, err := e.Schedule(ctx, Baseline, "nope"); err == nil {
		t.Error("Schedule accepted an unknown name")
	}
	if _, err := NewWorkload("nope", 1, 1); err == nil {
		t.Error("NewWorkload accepted an unknown name")
	}
	// The synth name space resolves everywhere too.
	if _, err := NewWorkload("synth:uniform-ro", 1, 0.02); err != nil {
		t.Errorf("NewWorkload rejected a synth name: %v", err)
	}
	if _, err := e.Traces(ctx, "synth:uniform-ro"); err != nil {
		t.Errorf("Traces rejected a synth name: %v", err)
	}
}

// TestEngineBenchSharesSession: a session-compatible bench config reuses
// the session cache (the report stays structurally sound either way).
func TestEngineBenchSharesSession(t *testing.T) {
	if testing.Short() {
		t.Skip("bench cells take ~300ms each")
	}
	e := tinyEngine(2)
	ctx := context.Background()
	cfg := BenchConfig{
		Workloads:   []string{"TPC-B"},
		Mechanisms:  Mechanisms[:1],
		MinRuns:     1,
		MinDuration: time.Millisecond,
	}
	rep, err := e.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Workload != "TPC-B" {
		t.Fatalf("unexpected report cells: %+v", rep.Cells)
	}
	if rep.Seed != 5 || rep.Scale != 0.05 {
		t.Errorf("bench did not inherit session parameters: seed=%d scale=%v", rep.Seed, rep.Scale)
	}
}

// TestEngineGateBench: the session gate runs the harness and judges the
// fresh report per cell against the baseline, recording the verdict in
// the returned file; nil and incomparable baselines are refused.
func TestEngineGateBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench harness")
	}
	e := tinyEngine(2)
	ctx := context.Background()
	cfg := BenchConfig{
		Workloads:   []string{"TPC-B"},
		MinRuns:     1,
		MinDuration: time.Millisecond,
	}
	base, err := e.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	file, verdict, err := e.GateBench(ctx, cfg, base, BenchGateConfig{MaxCellRegress: 0.9, MaxRegress: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Pass {
		t.Errorf("self-comparison failed a 90%% budget: %s", verdict.Summary())
	}
	if file.Gate != verdict || len(verdict.Cells) != len(Mechanisms) {
		t.Errorf("verdict not recorded in the file or wrong cell count: %d", len(verdict.Cells))
	}
	if _, _, err := e.GateBench(ctx, cfg, nil, BenchGateConfig{MaxCellRegress: 0.9}); err == nil {
		t.Error("nil baseline accepted")
	}

	// An explicit zero seed is a value, not "inherit the session".
	zero := cfg
	zero.Seed, zero.SeedSet = 0, true
	rep0, err := e.Bench(ctx, zero)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Seed != 0 {
		t.Errorf("explicit zero seed resolved to %d, want 0", rep0.Seed)
	}
	// ... and the resulting report is not comparable to the seed-5 one.
	if _, _, err := e.GateBench(ctx, cfg, rep0, BenchGateConfig{MaxCellRegress: 0.9}); err == nil {
		t.Error("mismatched-seed baseline accepted")
	}
}

// TestEngineRejectsOutOfRangeBase: a session whose scale or trace windows
// are not positive must answer every pipeline with an error — never with
// numbers from a degenerate workload, and never with a panic.
func TestEngineRejectsOutOfRangeBase(t *testing.T) {
	cases := []struct {
		name string
		opt  EngineOption
	}{
		{"scale -1", WithScale(-1)},
		{"scale 0", WithScale(0)},
		{"windows 0", WithTraceWindows(0, 0, 0)},
		{"windows -10", WithTraceWindows(-10, -10, -10)},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(WithSeed(5), WithScale(0.05), WithTraceWindows(60, 60, 80), WithWorkers(1), c.opt)
			calls := []struct {
				what string
				call func() error
			}{
				{"Traces", func() error { _, err := e.Traces(ctx, "TPC-B"); return err }},
				{"ProfilingTraces", func() error { _, err := e.ProfilingTraces(ctx, "TPC-B"); return err }},
				{"Profile", func() error { _, err := e.Profile(ctx, "TPC-B"); return err }},
				{"Schedule", func() error { _, err := e.Schedule(ctx, Baseline, "TPC-B"); return err }},
				{"ScheduleAll", func() error { _, err := e.ScheduleAll(ctx, "TPC-B"); return err }},
				{"GenerateTraces", func() error { _, err := e.GenerateTraces(ctx, "TPC-B", 10); return err }},
				{"Bench", func() error {
					_, err := e.Bench(ctx, BenchConfig{Workloads: []string{"TPC-B"}, MinRuns: 1, MinDuration: time.Millisecond})
					return err
				}},
				{"Sweep", func() error {
					return e.Sweep(ctx, io.Discard, SweepSpec{Workloads: []string{"TPC-B"}, Mechanisms: []string{"Baseline"}}, "csv")
				}},
				{"Experiments(fig1)", func() error { return e.Experiments(ctx, io.Discard, "fig1") }},
				{"Experiments", func() error { return e.Experiments(ctx, io.Discard) }},
			}
			for _, call := range calls {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s panicked: %v", call.what, r)
						}
					}()
					if err := call.call(); err == nil {
						t.Errorf("%s returned no error", call.what)
					}
				}()
			}
		})
	}
}

// TestDeprecatedWrappersStillServe keeps the jobs of the removed v1
// wrappers served: each wrapper was a one-shot throwaway session, so a
// fresh NewEngine(...) call must produce the same artifacts as a warm
// session that has already done other work.
func TestDeprecatedWrappersStillServe(t *testing.T) {
	ctx := context.Background()
	oneShot := func() *Engine { return NewEngine(WithSeed(5), WithScale(0.05), WithWorkers(2)) }
	warm := oneShot()
	if _, err := warm.GenerateTraces(ctx, "TPC-C", 10); err != nil {
		t.Fatal(err)
	}

	v1, err := oneShot().GenerateTraces(ctx, "TPC-B", 30)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := warm.GenerateTraces(ctx, "TPC-B", 30)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Digest() != v2.Digest() {
		t.Error("one-shot GenerateTraces diverges from a warm session")
	}

	spec, err := ParseSynthWorkload("synth:uniform-ro")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := oneShot().SynthTraces(ctx, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := warm.SynthTraces(ctx, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Digest() != s2.Digest() {
		t.Error("one-shot SynthTraces diverges from a warm session")
	}

	p := QuickExperimentParams()
	session := func() *Engine {
		return NewEngine(WithSeed(p.Seed), WithScale(p.Scale), WithMachine(p.Machine),
			WithTraceWindows(p.ProfileTraces, p.EvalTraces, p.StabilityTraces), WithWorkers(1))
	}
	var first, again bytes.Buffer
	e := session()
	if err := e.Experiments(ctx, &first, "table1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Experiments(ctx, &again, "table1"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte("Table 1")) {
		t.Error("Experiments(table1) output missing header")
	}
	if first.String() != again.String() {
		t.Error("Experiments(table1) differs between a fresh and a warm session")
	}
}
