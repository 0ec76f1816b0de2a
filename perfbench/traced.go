package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"addict"
	"addict/internal/cache"
	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/trace"
)

// counts are the quantities a span records at its layer boundary.
type counts map[string]float64

// span is one timed call into a layer. Spans of one run share Run; Parent
// is the enclosing span's ID, -1 for a root.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Counts counts `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory. It is used from one goroutine, so
// spans nest strictly and a parent's children never overlap.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do runs fn inside a span named name in the given layer; fn adds the
// span's counts.
func (t *tracer) do(layer, name string, fn func(c counts) error) error {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	c := counts{}
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	err := fn(c)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	if len(c) > 0 {
		t.spans[id].Counts = c
	}
	return err
}

// self returns each span's duration minus the time its children cover.
func (t *tracer) self() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// sum totals the durations and counts of the spans whose name starts with
// prefix.
func (t *tracer) sum(prefix string) (d time.Duration, c counts, n int) {
	c = counts{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.dur()
			n++
			for k, v := range s.Counts {
				c[k] += v
			}
		}
	}
	return d, c, n
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func heapStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func setEvents(s *trace.Set) float64 {
	n := 0
	for _, tr := range s.Traces {
		n += len(tr.Events)
	}
	return float64(n)
}

// generate wraps a trace-window request in a workload span that records
// the events generated and the bytes allocated generating them.
func generate(t *tracer, name string, get func() (*trace.Set, error)) (*trace.Set, error) {
	var set *trace.Set
	err := t.do("workload", name, func(c counts) error {
		before := heapStats().TotalAlloc
		var err error
		if set, err = get(); err != nil {
			return err
		}
		c["events"] = setEvents(set)
		c["alloc_bytes"] = float64(heapStats().TotalAlloc - before)
		return nil
	})
	return set, err
}

// profile wraps an Algorithm 1 request in a span of the given layer that
// records the profiling window's events.
func profile(t *tracer, layer, name string, events float64, get func() (*core.Profile, error)) (*core.Profile, error) {
	var p *core.Profile
	err := t.do(layer, name, func(c counts) error {
		var err error
		p, err = get()
		c["events"] = events
		return err
	})
	return p, err
}

// populateTraced is warm-sweep's setup through the layer entry points: a
// store-backed artifact cache generates and persists each workload's
// windows and profile. Each span includes encoding and the fsync'd Put of
// its artifact.
func populateTraced(ctx context.Context, t *tracer, c config, dir string) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	arts := sweep.NewArtifacts(c.Seed, c.Scale, c.ProfileTraces, c.EvalTraces, 1)
	arts.SetStore(st)
	for _, w := range c.Grid.Workloads {
		profSet, err := generate(t, "workload.profile_set:"+w, func() (*trace.Set, error) { return arts.ProfileSet(ctx, w) })
		if err != nil {
			return err
		}
		if _, err := generate(t, "workload.eval_set:"+w, func() (*trace.Set, error) { return arts.EvalSet(ctx, w) }); err != nil {
			return err
		}
		m := sim.Shallow()
		if _, err := profile(t, "core", "core.profile:"+w, setEvents(profSet), func() (*core.Profile, error) {
			return arts.Profile(ctx, w, m)
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayer reproduces a sweep unit by unit through the layer entry points,
// giving each call a span: trace-window and profile requests (workload and
// core layers, or store when the cache reads them from disk), replays
// (sched) and row emission (sweep). Requests the session cache answers
// from memory go to the pool layer.
type replayer struct {
	t         *tracer
	arts      *sweep.Artifacts
	fromStore bool
	seen      map[string]bool
}

func (r *replayer) evalSet(ctx context.Context, w string) (*trace.Set, error) {
	key := "eval\x00" + w
	get := func() (*trace.Set, error) { return r.arts.EvalSet(ctx, w) }
	switch {
	case r.seen[key]:
		var set *trace.Set
		err := r.t.do("pool", "pool.eval_set:"+w, func(counts) error {
			var err error
			set, err = get()
			return err
		})
		return set, err
	case r.fromStore:
		r.seen[key] = true
		var set *trace.Set
		err := r.t.do("store", "store.artifacts.eval_set:"+w, func(c counts) error {
			var err error
			if set, err = get(); err == nil {
				c["events"] = setEvents(set)
			}
			return err
		})
		return set, err
	default:
		r.seen[key] = true
		return generate(r.t, "workload.eval_set:"+w, get)
	}
}

func (r *replayer) profile(ctx context.Context, u addict.SweepUnit) (*core.Profile, error) {
	w, m := u.Workload, u.Machine
	key := fmt.Sprintf("profile\x00%s\x00%d\x00%d", w, m.L1I.SizeBytes, m.L1I.Ways)
	name := fmt.Sprintf("%s/%dK", w, m.L1I.SizeBytes>>10)
	get := func() (*core.Profile, error) { return r.arts.Profile(ctx, w, m) }
	switch {
	case r.seen[key]:
		return profile(r.t, "pool", "pool.profile:"+name, 0, get)
	case r.fromStore:
		r.seen[key] = true
		return profile(r.t, "store", "store.artifacts.profile:"+name, 0, get)
	default:
		r.seen[key] = true
		// Generate the profiling window in its own span, so the profile
		// span below times Algorithm 1 alone.
		setKey := "profset\x00" + w
		var set *trace.Set
		var err error
		if r.seen[setKey] {
			set, err = r.arts.ProfileSet(ctx, w)
		} else {
			r.seen[setKey] = true
			set, err = generate(r.t, "workload.profile_set:"+w, func() (*trace.Set, error) { return r.arts.ProfileSet(ctx, w) })
		}
		if err != nil {
			return nil, err
		}
		return profile(r.t, "core", "core.profile:"+name, setEvents(set), get)
	}
}

// replay runs one unit's replay in a sched span recording the simulated
// instructions, the events replayed and the heap allocations made.
func (r *replayer) replay(u addict.SweepUnit, set *trace.Set, prof *core.Profile) (sim.Result, error) {
	var res sim.Result
	err := r.t.do("sched", "sched."+string(u.Mechanism)+":"+u.ID, func(c counts) error {
		before := heapStats().Mallocs
		var err error
		if res, err = sweep.Replay(u, set, prof); err != nil {
			return err
		}
		c["mallocs"] = float64(heapStats().Mallocs - before)
		c["instructions"] = float64(res.Machine.Instructions)
		c["events"] = setEvents(set)
		return nil
	})
	return res, err
}

// unit mirrors sweep.RunUnit: only ADDICT consults a profile.
func (r *replayer) unit(ctx context.Context, u addict.SweepUnit) (addict.SweepMetrics, error) {
	var prof *core.Profile
	if u.Mechanism == sched.ADDICT {
		p, err := r.profile(ctx, u)
		if err != nil {
			return addict.SweepMetrics{}, err
		}
		prof = p
	}
	set, err := r.evalSet(ctx, u.Workload)
	if err != nil {
		return addict.SweepMetrics{}, err
	}
	res, err := r.replay(u, set, prof)
	if err != nil {
		return addict.SweepMetrics{}, err
	}
	return sweep.Measure(res), nil
}

// sweep reproduces the workload's sweeps in order, writing their JSONL
// rows to out.
func (r *replayer) sweep(ctx context.Context, specs []addict.SweepSpec, out io.Writer) error {
	em, err := sweep.NewEmitter("jsonl", out)
	if err != nil {
		return err
	}
	for _, s := range specs {
		us, err := addict.ExpandSweep(s)
		if err != nil {
			return err
		}
		if err := em.Begin(us); err != nil {
			return err
		}
		for _, u := range us {
			m, err := r.unit(ctx, u)
			if err != nil {
				return fmt.Errorf("%s: %w", u.ID, err)
			}
			if err := r.t.do("sweep", "sweep.emit", func(counts) error { return em.Emit(u, m) }); err != nil {
				return err
			}
		}
		if err := em.End(); err != nil {
			return err
		}
	}
	return nil
}

// driverGeometries are the L1-I sizes the cache driver replays the block
// stream through: geometry-sweep's two and the Table-1 size between them.
var driverGeometries = []int{16 << 10, 32 << 10, 64 << 10}

// drive runs the layer drivers a sweep hides, over the evaluation windows
// the units replayed: the cache model over the instruction-block stream,
// the migration-point tracker, the trace codec and the store. It then
// replays, on the Table-1 machine, each mechanism the grid left out, so
// every sched metric has a value on every workload. It returns the driver
// store's counters.
func drive(ctx context.Context, t *tracer, c config, arts *sweep.Artifacts, us []addict.SweepUnit) (store.Stats, error) {
	var names []string
	for _, u := range us {
		if !slices.Contains(names, u.Workload) {
			names = append(names, u.Workload)
		}
	}
	sets := make([]*trace.Set, len(names))
	var blocks []uint64
	for i, w := range names {
		set, err := arts.EvalSet(ctx, w)
		if err != nil {
			return store.Stats{}, err
		}
		sets[i] = set
		for _, tr := range set.Traces {
			for _, ev := range tr.Events {
				if ev.Kind == trace.KindInstr {
					blocks = append(blocks, ev.Addr)
				}
			}
		}
	}

	for _, size := range driverGeometries {
		cfg := sim.Shallow().L1I
		cfg.SizeBytes = size
		t.do("cache", fmt.Sprintf("cache.access:%dK", size>>10), func(cn counts) error {
			// Each pass starts from an empty cache and sees the same stream,
			// so the first pass's counts give the hit ratio; the pass count,
			// which depends on the host's speed, only divides the time.
			start := time.Now()
			for pass := 0; pass == 0 || time.Since(start) < c.DriverMin; pass++ {
				cc := cache.New(cfg)
				for _, a := range blocks {
					cc.Access(a)
				}
				st := cc.Stats()
				cn["accesses"] += float64(st.Accesses)
				if pass == 0 {
					cn["pass_accesses"] = float64(st.Accesses)
					cn["pass_misses"] = float64(st.Misses)
				}
			}
			return nil
		})
	}

	for k, w := range names {
		// The tracker follows ADDICT's assignment from the first ADDICT
		// unit of the workload, on that unit's machine.
		i := slices.IndexFunc(us, func(u addict.SweepUnit) bool { return u.Workload == w && u.Mechanism == sched.ADDICT })
		if i < 0 {
			continue
		}
		prof, err := arts.Profile(ctx, w, us[i].Machine)
		if err != nil {
			return store.Stats{}, err
		}
		asg := prof.Assign(us[i].Machine.Cores)
		set := sets[k]
		t.do("core", "core.tracker:"+w, func(cn counts) error {
			start := time.Now()
			for pass := 0; pass == 0 || time.Since(start) < c.DriverMin; pass++ {
				for _, tr := range set.Traces {
					tk := core.MakeTracker(asg.PerTxn[tr.Type])
					for _, ev := range tr.Events {
						tk.Next(ev)
					}
				}
				cn["events"] += setEvents(set)
			}
			return nil
		})
	}

	payloads := make([][]byte, len(sets))
	for i, set := range sets {
		var buf bytes.Buffer
		if err := t.do("trace", "trace.encode:"+names[i], func(cn counts) error {
			if err := trace.WriteSet(&buf, set); err != nil {
				return err
			}
			cn["bytes"] = float64(buf.Len())
			cn["events"] = setEvents(set)
			return nil
		}); err != nil {
			return store.Stats{}, err
		}
		payloads[i] = buf.Bytes()
		var got *trace.Set
		if err := t.do("trace", "trace.decode:"+names[i], func(cn counts) error {
			var err error
			got, err = trace.ReadSet(bytes.NewReader(payloads[i]))
			cn["bytes"] = float64(len(payloads[i]))
			return err
		}); err != nil {
			return store.Stats{}, err
		}
		if got.Digest() != set.Digest() {
			return store.Stats{}, fmt.Errorf("%s: decoded trace set differs from the encoded one", names[i])
		}
	}

	dir := filepath.Join(c.WorkDir, fmt.Sprintf("driver-store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return store.Stats{}, err
	}
	spec := func(i int) string { return fmt.Sprintf("perfbench|seed=%d|eval=%s", c.Seed, names[i]) }
	for i, p := range payloads {
		t.do("store", "store.put:"+names[i], func(cn counts) error {
			st.Put(spec(i), p)
			cn["bytes"] = float64(len(p))
			return nil
		})
	}
	for i := range payloads {
		if err := t.do("store", "store.get:"+names[i], func(cn counts) error {
			p, ok := st.Get(spec(i))
			if !ok || !bytes.Equal(p, payloads[i]) {
				return fmt.Errorf("%s: store returned another payload than it was given", names[i])
			}
			cn["bytes"] = float64(len(p))
			return nil
		}); err != nil {
			return store.Stats{}, err
		}
	}

	// Every grid replays ADDICT, so a mechanism left out never needs a
	// profile.
	r := &replayer{t: t, arts: arts, seen: map[string]bool{}}
	for _, name := range allMechanisms {
		mech, err := addict.ParseMechanism(name)
		if err != nil {
			return store.Stats{}, err
		}
		if slices.ContainsFunc(us, func(u addict.SweepUnit) bool { return u.Mechanism == mech }) {
			continue
		}
		if _, err := r.replay(sweep.NewUnit(names[0], mech, sim.Shallow(), 0, 0), sets[0], nil); err != nil {
			return store.Stats{}, err
		}
	}
	return st.Stats(), nil
}

// runTraced is the per-layer run: the workload's setup, one untraced sweep
// as the timed run makes it, the same units reproduced through the layer
// entry points with a span around each call, and the layer drivers. The
// reproduced rows must equal the untraced rows byte for byte.
func runTraced(ctx context.Context, c config, workload string) (report, error) {
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
	t := newTracer(fmt.Sprintf("%s-seed%d-%d", workload, c.Seed, time.Now().UnixNano()))
	rep := report{}
	fail := func(f int, why string) {
		if f > 0 {
			rep.failed += f
			logf("%s traced: %d units failed: %s", workload, f, why)
		}
	}

	warm := workload == warmSweep
	var storeDir string
	var stores []store.Stats
	newSession := func() *addict.Engine { return addict.NewEngine(c.engineOptions()...) }
	if warm {
		storeDir = filepath.Join(c.WorkDir, fmt.Sprintf("store-%d", os.Getpid()))
		defer os.RemoveAll(storeDir)
		if err := t.do("setup", "setup", func(counts) error { return populateTraced(ctx, t, c, storeDir) }); err != nil {
			return report{}, fmt.Errorf("populate store: %w", err)
		}
		newSession = func() *addict.Engine {
			return addict.NewEngine(c.engineOptions(addict.WithStore(storeDir, 0))...)
		}
	}

	var untraced sweepRun
	if err := t.do("untraced", "untraced", func(counts) error {
		var err error
		untraced, err = timedSweep(ctx, newSession, specs)
		return err
	}); err != nil {
		return report{}, err
	}
	rep.attempted += n
	f, why := checkRows(untraced.rows, untraced.err, n, nil, exp)
	if warm {
		if w := checkWarmStore(untraced.session.CacheStats().Store); w != "" {
			f, why = n, w
		}
	}
	fail(f, "untraced sweep: "+why)
	if st := untraced.session.CacheStats().Store; st != nil {
		stores = append(stores, *st)
	}
	untraced.session = nil

	arts := sweep.NewArtifacts(c.Seed, c.Scale, c.ProfileTraces, c.EvalTraces, 1)
	if warm {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return report{}, err
		}
		arts.SetStore(st)
	}
	// Start from the state the untraced sweep started from.
	debug.FreeOSMemory()
	var rows bytes.Buffer
	r := &replayer{t: t, arts: arts, fromStore: warm, seen: map[string]bool{}}
	root := len(t.spans) // the ID the sweep span gets
	sweepErr := t.do("sweep", "sweep", func(counts) error { return r.sweep(ctx, specs, &rows) })
	rep.attempted += n
	tracedFailed, why := checkRows(rows.Bytes(), sweepErr, n, untraced.rows, exp)
	poolStats := arts.CacheStats()
	if st, ok := arts.StoreStats(); ok {
		stores = append(stores, st)
		if w := checkWarmStore(&st); w != "" {
			tracedFailed, why = n, w
		}
	}

	var driverStore store.Stats
	if err := t.do("drivers", "drivers", func(counts) error {
		var err error
		driverStore, err = drive(ctx, t, c, arts, us)
		return err
	}); err != nil {
		return report{}, err
	}
	stores = append(stores, driverStore)
	var hits, misses, verifyFailures uint64
	for _, st := range stores {
		hits += st.Hits
		misses += st.Misses
		verifyFailures += st.VerifyFailures
	}
	if driverStore.VerifyFailures > 0 {
		tracedFailed, why = n, fmt.Sprintf("%d verify failures in the driver store", driverStore.VerifyFailures)
	}
	fail(tracedFailed, "traced sweep: "+why)

	spanFile := filepath.Join(c.WorkDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, c.Seed))
	if err := t.write(spanFile); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	logf("%d spans of run %s written to %s", len(t.spans), t.run, spanFile)

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	self := t.self()
	rootSpan := t.spans[root]

	d, cn, _ := t.sum("workload.")
	put("workload.gen_s", d.Seconds(), "s")
	put("workload.events_per_s", cn["events"]/d.Seconds(), "1/s")
	put("workload.alloc_bytes_per_event", cn["alloc_bytes"]/cn["events"], "B")

	d, cn, _ = t.sum("core.profile:")
	put("core.profile_s", d.Seconds(), "s")
	put("core.events_per_s", cn["events"]/d.Seconds(), "1/s")
	d, cn, _ = t.sum("core.tracker:")
	put("core.tracker_ns_per_event", float64(d.Nanoseconds())/cn["events"], "ns")

	for _, mech := range allMechanisms {
		d, cn, _ := t.sum("sched." + mech + ":")
		put("sched."+mech+".replay_s", d.Seconds(), "s")
		put("sched."+mech+".ns_per_kinstr", float64(d.Nanoseconds())/(cn["instructions"]/1000), "ns")
	}
	_, cn, replays := t.sum("sched.")
	put("sim.allocs_per_replay", cn["mallocs"]/float64(replays), "allocs/replay")
	put("sim.instructions", cn["instructions"], "count")
	put("sim.events", cn["events"], "count")

	d, cn, _ = t.sum("cache.access:")
	put("cache.access_ns", float64(d.Nanoseconds())/cn["accesses"], "ns")
	put("cache.hit_ratio", 1-cn["pass_misses"]/cn["pass_accesses"], "ratio")
	for _, size := range driverGeometries {
		d, cn, _ := t.sum(fmt.Sprintf("cache.access:%dK", size>>10))
		put(fmt.Sprintf("cache.l1i_%dK.access_ns", size>>10), float64(d.Nanoseconds())/cn["accesses"], "ns")
		put(fmt.Sprintf("cache.l1i_%dK.hit_ratio", size>>10), 1-cn["pass_misses"]/cn["pass_accesses"], "ratio")
	}

	d, cn, _ = t.sum("trace.encode:")
	put("trace.encode_mb_per_s", mb(uint64(cn["bytes"]))/d.Seconds(), "MB/s")
	put("trace.bytes_per_event", cn["bytes"]/cn["events"], "B")
	d, cn, _ = t.sum("trace.decode:")
	put("trace.decode_mb_per_s", mb(uint64(cn["bytes"]))/d.Seconds(), "MB/s")

	d, _, _ = t.sum("store.put:")
	put("store.put_s", d.Seconds(), "s")
	d, cn, _ = t.sum("store.get:")
	put("store.get_s", d.Seconds(), "s")
	put("store.get_mb_per_s", mb(uint64(cn["bytes"]))/d.Seconds(), "MB/s")
	put("store.hits", float64(hits), "count")
	put("store.misses", float64(misses), "count")
	put("store.verify_failures", float64(verifyFailures), "count")

	var sweepSelf time.Duration
	for i, s := range t.spans {
		if s.Layer == "sweep" {
			sweepSelf += self[i]
		}
	}
	put("sweep.self_s", sweepSelf.Seconds(), "s")
	put("sweep.units", float64(n), "count")
	put("sweep.units_failed", float64(tracedFailed), "count")
	put("pool.hits", float64(poolStats.Hits), "count")
	put("pool.misses", float64(poolStats.Misses), "count")

	instr, _ := rowInstructions(rows.Bytes())
	tracedRate := float64(instr) / rootSpan.dur().Seconds() / 1e6
	untracedRate := float64(untraced.sample.instructions) / untraced.sample.seconds / 1e6
	put("tracing.traced_minstr_per_s", tracedRate, "Minstr/s")
	put("tracing.untraced_minstr_per_s", untracedRate, "Minstr/s")
	put("tracing.overhead_share", (untracedRate-tracedRate)/untracedRate, "ratio")
	put("tracing.attributed_share", 1-self[root].Seconds()/rootSpan.dur().Seconds(), "ratio")
	rep.metrics = m
	rep.output = summarize(rows.Bytes())
	logf("%s traced: rows sha256 %s, %d simulated instructions", workload, rep.output.Digest, rep.output.Instructions)
	return rep, nil
}
