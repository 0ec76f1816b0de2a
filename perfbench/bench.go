package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"addict"
)

// config fixes the sizes, grids and expected outputs of one benchmark run.
// The defaults (defaultConfig) are the quick evaluation sizes every figure
// uses; the smoke test shrinks them.
type config struct {
	Seed          int64
	Scale         float64
	ProfileTraces int
	EvalTraces    int
	// Grid is the Table-1 grid of cold-sweep and warm-sweep.
	Grid addict.SweepSpec
	// Geometry is geometry-sweep's grid, run on the shallow hierarchy and
	// then (Deep set) on the deep one.
	Geometry addict.SweepSpec
	// Expected holds the recorded JSONL digest and instruction total per
	// (workload, seed); a run whose seed is absent checks its sweeps
	// against each other and, for warm-sweep, against cold rows instead.
	Expected map[expectKey]expectation
	// WorkDir receives the on-disk stores and the span files; the default
	// is relative to the checkout root, where run.sh starts the program.
	WorkDir string
	// ColdSetupReps and WarmSetupReps are how many times setup runs before
	// the timed part; setup_s is the median.
	ColdSetupReps int
	WarmSetupReps int
	// DriverMin is the least time each repeated layer driver (cache,
	// tracker) runs in the traced run.
	DriverMin time.Duration
}

type expectKey struct {
	Workload string
	Seed     int64
}

type expectation struct {
	Digest       string // sha256 of the workload's JSONL rows
	Instructions uint64 // simulated instructions over all units
}

// allMechanisms is every scheduling mechanism the repository implements,
// listed here so that adding one does not change the benchmark's grid.
var allMechanisms = []string{"Baseline", "STREX", "SLICC", "ADDICT", "HTMSPEC", "CHAIN"}

func defaultConfig(seed int64) config {
	return config{
		Seed:          seed,
		Scale:         0.5,
		ProfileTraces: 250,
		EvalTraces:    250,
		Grid: addict.SweepSpec{
			Workloads:  []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw"},
			Mechanisms: allMechanisms,
		},
		Geometry: addict.SweepSpec{
			Workloads:  []string{"TPC-C"},
			Mechanisms: []string{"Baseline", "SLICC", "ADDICT"},
			L1ISizes:   []int{16 << 10, 64 << 10},
			Threads:    []int{4, 64},
		},
		Expected:      recorded,
		WorkDir:       filepath.Join(".bench_build", "perfbench"),
		ColdSetupReps: 201,
		WarmSetupReps: 3,
		DriverMin:     200 * time.Millisecond,
	}
}

// setupPause precedes each cold-sweep and geometry-sweep session
// construction. Constructions timed back to back measure a hot loop of a few
// microseconds whose speed flips by 2x with the neighbours' load; after a
// pause each starts cold, as a user's one-off construction does, and their
// median repeats across runs.
const setupPause = 5 * time.Millisecond

// Workload names.
const (
	coldSweep     = "cold-sweep"
	warmSweep     = "warm-sweep"
	geometrySweep = "geometry-sweep"
)

var workloadNames = []string{coldSweep, warmSweep, geometrySweep}

// specs returns the sweeps a workload runs, in order, on one session.
func (c config) specs(workload string) ([]addict.SweepSpec, error) {
	switch workload {
	case coldSweep, warmSweep:
		return []addict.SweepSpec{c.Grid}, nil
	case geometrySweep:
		deep := c.Geometry
		deep.Deep = true
		return []addict.SweepSpec{c.Geometry, deep}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames, ", "))
}

// units expands the workload's sweeps into the units they run, in
// emission order.
func units(specs []addict.SweepSpec) ([]addict.SweepUnit, error) {
	var all []addict.SweepUnit
	for _, s := range specs {
		us, err := addict.ExpandSweep(s)
		if err != nil {
			return nil, err
		}
		all = append(all, us...)
	}
	return all, nil
}

// engineOptions are the session options every workload shares: one worker,
// so the second vCPU is left to the garbage collector.
func (c config) engineOptions(extra ...addict.EngineOption) []addict.EngineOption {
	return append([]addict.EngineOption{
		addict.WithSeed(c.Seed),
		addict.WithScale(c.Scale),
		addict.WithTraceWindows(c.ProfileTraces, c.EvalTraces, 0),
		addict.WithWorkers(1),
	}, extra...)
}

// sweepRows runs the sweeps in order on one session and returns their
// concatenated JSONL rows.
func sweepRows(ctx context.Context, e *addict.Engine, specs []addict.SweepSpec) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range specs {
		if err := e.Sweep(ctx, &buf, s, "jsonl"); err != nil {
			return buf.Bytes(), err
		}
	}
	return buf.Bytes(), nil
}

// populate is warm-sweep's setup: a session attached to a new store at dir
// generates every workload's profiling and evaluation windows and runs
// Algorithm 1 on the Table-1 L1-I, and the store persists each artifact.
func populate(ctx context.Context, c config, dir string) (*addict.Engine, error) {
	e := addict.NewEngine(c.engineOptions(addict.WithStore(dir, 0))...)
	if err := e.StoreErr(); err != nil {
		return nil, err
	}
	for _, w := range c.Grid.Workloads {
		if _, err := e.ProfilingTraces(ctx, w); err != nil {
			return nil, err
		}
		if _, err := e.Traces(ctx, w); err != nil {
			return nil, err
		}
		if _, err := e.Profile(ctx, w); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// rowInstructions sums the simulated instructions of JSONL rows.
func rowInstructions(rows []byte) (uint64, error) {
	var total uint64
	sc := bufio.NewScanner(bytes.NewReader(rows))
	for sc.Scan() {
		var r struct {
			Instructions uint64 `json:"instructions"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return 0, fmt.Errorf("row: %w", err)
		}
		total += r.Instructions
	}
	return total, sc.Err()
}

// summarize reduces rows to the values the recorded table keeps.
func summarize(rows []byte) expectation {
	instr, _ := rowInstructions(rows)
	return expectation{Digest: digest(rows), Instructions: instr}
}

func digest(rows []byte) string {
	sum := sha256.Sum256(rows)
	return hex.EncodeToString(sum[:])
}

// checkRows counts the failed units of one sweep: every unit when the sweep
// errored or its digest or instruction total differs from the recorded
// values, otherwise each row that is missing or differs from the reference
// rows (nil ref: no reference yet).
func checkRows(rows []byte, sweepErr error, n int, ref []byte, exp *expectation) (failed int, why string) {
	if sweepErr != nil {
		return n, sweepErr.Error()
	}
	instr, err := rowInstructions(rows)
	if err != nil {
		return n, err.Error()
	}
	if exp != nil && (digest(rows) != exp.Digest || instr != exp.Instructions) {
		return n, fmt.Sprintf("rows sha256 %s with %d instructions, recorded %s with %d",
			digest(rows), instr, exp.Digest, exp.Instructions)
	}
	got := splitRows(rows)
	if len(got) != n {
		return n, fmt.Sprintf("%d rows for %d units", len(got), n)
	}
	if ref == nil {
		return 0, ""
	}
	for i, want := range splitRows(ref) {
		if i < n && !bytes.Equal(got[i], want) {
			failed++
			why = fmt.Sprintf("row %d differs from the reference", i)
		}
	}
	return failed, why
}

func splitRows(rows []byte) [][]byte {
	return bytes.SplitAfter(bytes.TrimSuffix(rows, []byte("\n")), []byte("\n"))
}

// sweepSample is one timed sweep's measurements.
type sweepSample struct {
	seconds      float64
	cpuSeconds   float64 // user and system CPU time of the process
	instructions uint64
	peakRSS      uint64 // bytes, the timed sweep only
	live         uint64 // bytes of live heap after the sweep, session held
}

// sweepRun is one timed sweep: its rows, its own error (which fails its
// units rather than the benchmark), its measurements and its session.
type sweepRun struct {
	rows    []byte
	err     error
	sample  sweepSample
	session *addict.Engine
}

// timedSweep runs the workload's sweeps on a fresh session from newSession,
// timing them alone: memory left by earlier sessions is returned to the OS
// and the peak-RSS mark reset before the clock starts.
func timedSweep(ctx context.Context, newSession func() *addict.Engine, specs []addict.SweepSpec) (sweepRun, error) {
	r := sweepRun{session: newSession()}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	r.rows, r.err = sweepRows(ctx, r.session, specs)
	r.sample.seconds = time.Since(t0).Seconds()
	r.sample.cpuSeconds = cpuTime() - cpu0
	peak, err := peakRSS()
	if err != nil {
		return r, err
	}
	r.sample.peakRSS = peak
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.sample.live = ms.HeapAlloc
	r.sample.instructions, _ = rowInstructions(r.rows)
	return r, nil
}

// runUntraced is the end-to-end run: setup several times, then fresh-session
// sweeps until the timed part reaches seconds, checking every sweep's rows.
func runUntraced(ctx context.Context, c config, workload string, seconds float64) (report, error) {
	specs, err := c.specs(workload)
	if err != nil {
		return report{}, err
	}
	us, err := units(specs)
	if err != nil {
		return report{}, err
	}
	n := len(us)
	exp := c.expected(workload)
	rep := report{}
	fail := func(f int, why string) {
		if f > 0 {
			rep.failed += f
			logf("%s: %d units failed: %s", workload, f, why)
		}
	}

	var setups []float64
	var ref []byte
	newSession := func() *addict.Engine { return addict.NewEngine(c.engineOptions()...) }
	if workload == warmSweep {
		for i := range c.WarmSetupReps {
			dir := filepath.Join(c.WorkDir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
			defer os.RemoveAll(dir)
			t0 := time.Now()
			e, err := populate(ctx, c, dir)
			if err != nil {
				return report{}, fmt.Errorf("populate store: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if i < c.WarmSetupReps-1 {
				os.RemoveAll(dir)
				continue
			}
			// The populating session generated everything itself: its rows
			// are cold rows, the reference the warm rows must equal.
			var sweepErr error
			ref, sweepErr = sweepRows(ctx, e, specs)
			rep.attempted += n
			f, why := checkRows(ref, sweepErr, n, nil, exp)
			fail(f, "cold reference: "+why)
			storeDir := dir
			newSession = func() *addict.Engine {
				return addict.NewEngine(c.engineOptions(addict.WithStore(storeDir, 0))...)
			}
		}
	} else {
		for range c.ColdSetupReps {
			time.Sleep(setupPause)
			t0 := time.Now()
			e := newSession()
			setups = append(setups, time.Since(t0).Seconds())
			runtime.KeepAlive(e)
		}
	}

	var samples []sweepSample
	elapsed := 0.0
	for len(samples) == 0 || elapsed < seconds {
		r, err := timedSweep(ctx, newSession, specs)
		if err != nil {
			return report{}, err
		}
		s := r.sample
		samples = append(samples, s)
		elapsed += s.seconds
		rep.attempted += n
		f, why := checkRows(r.rows, r.err, n, ref, exp)
		if workload == warmSweep {
			if w := checkWarmStore(r.session.CacheStats().Store); w != "" {
				f, why = n, w
			}
		}
		fail(f, why)
		if ref == nil && r.err == nil {
			ref = r.rows
		}
		logf("%s: sweep %d: %.3f s (%.3f s CPU), %.1f Minstr/s, peak RSS %.0f MB, live heap %.0f MB",
			workload, len(samples), s.seconds, s.cpuSeconds, float64(s.instructions)/s.seconds/1e6,
			mb(s.peakRSS), mb(s.live))
	}

	rep.output = summarize(ref)
	logf("%s: rows sha256 %s, %d simulated instructions", workload, rep.output.Digest, rep.output.Instructions)
	rep.metrics = map[string]metric{
		"sim_minstr_per_s": {median(samples, func(s sweepSample) float64 {
			return float64(s.instructions) / s.seconds / 1e6
		}), "Minstr/s"},
		"setup_s":     {medianOf(setups), "s"},
		"peak_rss_mb": {median(samples, func(s sweepSample) float64 { return mb(s.peakRSS) }), "MB"},
		"resident_mb": {median(samples, func(s sweepSample) float64 { return mb(s.live) }), "MB"},
	}
	return rep, nil
}

// checkWarmStore says why a warm session's store counters break the
// warm-start contract, or returns "": everything the session needed was read
// from the store, verified, and nothing was regenerated or written back.
func checkWarmStore(st *addict.StoreStats) string {
	switch {
	case st == nil:
		return "no store attached"
	case st.VerifyFailures > 0 || st.Writes > 0 || st.Misses > 0:
		return fmt.Sprintf("warm store: %d verify failures, %d writes, %d misses",
			st.VerifyFailures, st.Writes, st.Misses)
	}
	return ""
}

func (c config) expected(workload string) *expectation {
	if workload == warmSweep {
		// The warm-start contract: warm rows are the cold rows.
		workload = coldSweep
	}
	if e, ok := c.Expected[expectKey{workload, c.Seed}]; ok {
		return &e
	}
	return nil
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func median[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the user and system CPU seconds the process has used.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS, so a later peakRSS covers only what ran in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM, the process's peak resident set since the last reset.
func peakRSS() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
