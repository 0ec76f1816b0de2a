package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"addict"
	"addict/client"
	"addict/cmd/internal/cmdtest"
)

// newTestServer builds a server on a tiny deterministic session — the test
// sizing convention (seed 5, scale 0.05, 40-trace windows, 2 workers) —
// behind an httptest listener, plus a typed client pointed at it.
func newTestServer(t *testing.T, maxRuns int) (*server, *client.Client) {
	t.Helper()
	eng := addict.NewEngine(
		addict.WithSeed(5), addict.WithScale(0.05),
		addict.WithTraceWindows(40, 40, 0), addict.WithWorkers(2))
	s := newServer(eng, maxRuns, time.Second, 0)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

func TestHealthAndWorkloads(t *testing.T) {
	_, c := newTestServer(t, 0)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	names, err := c.Workloads(ctx)
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	want := map[string]bool{"TPC-B": false, "TPC-C": false, "TPC-E": false, "synth:zipf-hot-rw": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("workload listing missing %q (got %v)", n, names)
		}
	}
}

// TestProfileRoundTrip: a profile request round-trips through the typed
// client, and the repeat is served from the response cache (one
// computation, one coalesced hit).
func TestProfileRoundTrip(t *testing.T) {
	s, c := newTestServer(t, 0)
	ctx := context.Background()
	sum, err := c.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if sum.Workload != "TPC-B" || sum.TxnTypes == 0 || sum.Ops == 0 || sum.MigrationPoints == 0 {
		t.Fatalf("implausible profile summary: %+v", sum)
	}
	again, err := c.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatalf("repeat Profile: %v", err)
	}
	if *again != *sum {
		t.Errorf("repeated profile differs: %+v vs %+v", again, sum)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Requests["profile"] != 2 || m.Computations["profile"] != 1 {
		t.Errorf("want 2 requests / 1 computation, got %d / %d",
			m.Requests["profile"], m.Computations["profile"])
	}
	if m.CoalescedHits != 1 {
		t.Errorf("want 1 coalesced hit, got %d", m.CoalescedHits)
	}
	if s.resp.Stats().Entries == 0 {
		t.Error("response cache empty after a cacheable request")
	}
}

// TestScheduleSynthMatchesEngine: a schedule reply for an encoded synth
// workload equals what the underlying session computes directly.
func TestScheduleSynthMatchesEngine(t *testing.T) {
	s, c := newTestServer(t, 0)
	ctx := context.Background()
	got, err := c.Schedule(ctx, "synth:zipf-hot-rw", "ADDICT")
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := s.eng.Schedule(ctx, addict.ADDICT, "synth:zipf-hot-rw")
	if err != nil {
		t.Fatalf("engine Schedule: %v", err)
	}
	if want := addict.MeasureSweepMetrics(res); got.Metrics != want {
		t.Errorf("served metrics %+v != engine metrics %+v", got.Metrics, want)
	}
}

// TestScheduleUnknownNames: resolution failures are 400s with the
// registry's error text — including the nearest-preset suggestion for
// synth typos.
func TestScheduleUnknownNames(t *testing.T) {
	_, c := newTestServer(t, 0)
	ctx := context.Background()
	_, err := c.Schedule(ctx, "TPC-X", "Baseline")
	var se *client.StatusError
	if !asStatus(err, &se) || se.Code != 400 {
		t.Fatalf("unknown workload: want 400 StatusError, got %v", err)
	}
	_, err = c.Profile(ctx, "synth:zipf-hot-rm")
	if !asStatus(err, &se) || se.Code != 400 || !strings.Contains(se.Message, `did you mean "zipf-hot-rw"`) {
		t.Fatalf("synth typo: want 400 with nearest-preset suggestion, got %v", err)
	}
	_, err = c.Schedule(ctx, "TPC-B", "FancyNewMech")
	if !asStatus(err, &se) || se.Code != 400 || !strings.Contains(se.Message, "unknown mechanism") {
		t.Fatalf("unknown mechanism: want 400, got %v", err)
	}
}

func asStatus(err error, out **client.StatusError) bool {
	se, ok := err.(*client.StatusError)
	if ok {
		*out = se
	}
	return ok
}

// TestSweepStream: a sweep streams one NDJSON row per expanded unit, in
// grid order, through the typed client.
func TestSweepStream(t *testing.T) {
	_, c := newTestServer(t, 0)
	spec := addict.SweepSpec{
		Workloads:  []string{"synth:uniform-ro"},
		Mechanisms: []string{"Baseline", "ADDICT"},
	}
	var rows []client.SweepRow
	n, err := c.Sweep(context.Background(), spec, func(r client.SweepRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if n != 2 || len(rows) != 2 {
		t.Fatalf("want 2 rows, got n=%d len=%d", n, len(rows))
	}
	if rows[0].Mechanism != "Baseline" || rows[1].Mechanism != "ADDICT" {
		t.Errorf("rows out of grid order: %q, %q", rows[0].Mechanism, rows[1].Mechanism)
	}
	for _, r := range rows {
		if r.Workload != "synth:uniform-ro" || r.ID == "" || r.Instructions == 0 {
			t.Errorf("implausible row: %+v", r)
		}
	}
}

// TestBenchSynthStream is the acceptance criterion's bench half: a bench
// request for synth:zipf-hot-rw streams progress lines and ends with a
// report whose cells cover the requested (workload × mechanism) grid.
func TestBenchSynthStream(t *testing.T) {
	_, c := newTestServer(t, 0)
	var progress []string
	rep, err := c.Bench(context.Background(), client.BenchRequest{
		Workloads:  []string{"synth:zipf-hot-rw"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		MinRuns:    1, MinDurationMS: 1,
	}, func(line string) { progress = append(progress, line) })
	if err != nil {
		t.Fatalf("Bench: %v", err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 bench cells, got %d", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if cell.Workload != "synth:zipf-hot-rw" || cell.EventsPerSec <= 0 {
			t.Errorf("implausible cell: %+v", cell)
		}
	}
	if len(progress) < 2 {
		t.Errorf("want >= 2 streamed progress lines, got %d: %v", len(progress), progress)
	}
	// A fresh identical request measures again (coalescing is in-flight
	// only — the bench cache memoizes no report).
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := m.Computations["bench"]
	if _, err := c.Bench(context.Background(), client.BenchRequest{
		Workloads:  []string{"synth:zipf-hot-rw"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		MinRuns:    1, MinDurationMS: 1,
	}, nil); err != nil {
		t.Fatalf("second Bench: %v", err)
	}
	m, err = c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Computations["bench"] != before+1 {
		t.Errorf("sequential bench requests must both measure: computations %d -> %d",
			before, m.Computations["bench"])
	}
}

// TestSweepCoalescing: N identical concurrent sweep requests produce
// exactly one underlying computation — the rest coalesce (in flight or
// from the response cache; either way the computation counter stays 1).
func TestSweepCoalescing(t *testing.T) {
	_, c := newTestServer(t, 0)
	spec := addict.SweepSpec{
		Workloads:  []string{"synth:hotset-write"},
		Mechanisms: []string{"Baseline", "SLICC"},
	}
	const n = 4
	var wg sync.WaitGroup
	counts := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i], errs[i] = c.Sweep(context.Background(), spec, nil)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if counts[i] != 2 {
			t.Errorf("request %d: want 2 rows, got %d", i, counts[i])
		}
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Computations["sweep"] != 1 {
		t.Errorf("want exactly 1 sweep computation for %d identical requests, got %d",
			n, m.Computations["sweep"])
	}
	if m.Requests["sweep"] != n {
		t.Errorf("want %d sweep requests, got %d", n, m.Requests["sweep"])
	}
	if m.CoalescedHits != n-1 {
		t.Errorf("want %d coalesced hits, got %d", n-1, m.CoalescedHits)
	}
}

// TestCancellationPropagates: a client that gives up mid-run cancels the
// server-side computation — observable as a runs_cancelled tick, promptly.
func TestCancellationPropagates(t *testing.T) {
	_, c := newTestServer(t, 0)
	// TPC-E population + four-mechanism replay cannot finish in 30ms, so
	// the deadline always lands mid-run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Sweep(ctx, addict.SweepSpec{Workloads: []string{"TPC-E"}}, nil)
	if err == nil {
		t.Fatal("sweep with a 30ms deadline succeeded; cannot exercise cancellation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, merr := c.Metrics(context.Background())
		if merr != nil {
			t.Fatal(merr)
		}
		if m.RunsCancelled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never observed the cancellation (runs_cancelled=%d)", m.RunsCancelled)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionLimiter: with every slot occupied, requests that need to
// compute are shed with 429 + Retry-After, while cache hits still serve;
// freeing the slot re-admits.
func TestAdmissionLimiter(t *testing.T) {
	s, c := newTestServer(t, 1)
	ctx := context.Background()
	if _, err := c.Profile(ctx, "synth:uniform-ro"); err != nil {
		t.Fatalf("warm-up Profile: %v", err)
	}
	if !s.acquire() {
		t.Fatal("could not occupy the only slot")
	}
	_, err := c.Profile(ctx, "synth:hotset-write")
	be, ok := err.(*client.BusyError)
	if !ok {
		t.Fatalf("want BusyError at capacity, got %v", err)
	}
	if be.RetryAfter < time.Second {
		t.Errorf("429 Retry-After = %v, want >= 1s", be.RetryAfter)
	}
	// A memoized answer must not need a slot.
	if _, err := c.Profile(ctx, "synth:uniform-ro"); err != nil {
		t.Errorf("cache hit rejected at capacity: %v", err)
	}
	m, merr := c.Metrics(ctx)
	if merr != nil {
		t.Fatal(merr)
	}
	if m.Rejected != 1 {
		t.Errorf("want 1 rejected request, got %d", m.Rejected)
	}
	s.release()
	if _, err := c.Profile(ctx, "synth:hotset-write"); err != nil {
		t.Errorf("Profile after slot release: %v", err)
	}
}

// TestInterruptExitsPromptly: SIGINT on the serving process drains and
// exits 130 within the 2-second cancellation bound — the same contract
// every addict command holds (CI re-checks it via cancel-smoke.sh).
func TestInterruptExitsPromptly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	exe := cmdtest.Build(t)
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0")
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := cmd.Wait()
	elapsed := time.Since(start)
	if err == nil {
		t.Error("interrupted server exited 0, want non-zero")
	}
	if elapsed > 2*time.Second {
		t.Errorf("server took %v to exit after SIGINT, want <= 2s", elapsed)
	}
}

// TestSweepDistributedMode: a sweep request carrying a dist block runs
// through the in-process coordinator + local workers and streams the same
// rows, in the same order, as the serial engine — and the coordinator's
// per-worker summary lands in /debug/vars under "dist".
func TestSweepDistributedMode(t *testing.T) {
	s, c := newTestServer(t, 0)
	ctx := context.Background()
	spec := addict.SweepSpec{
		Workloads:  []string{"synth:uniform-ro"},
		Mechanisms: []string{"Baseline", "ADDICT"},
	}
	var want bytes.Buffer
	if err := s.eng.Sweep(ctx, &want, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}

	var rows []client.SweepRow
	n, err := c.SweepDistributed(ctx, spec, client.DistRequest{LocalWorkers: 2},
		func(r client.SweepRow) error { rows = append(rows, r); return nil })
	if err != nil {
		t.Fatalf("SweepDistributed: %v", err)
	}
	if n != 2 || rows[0].Mechanism != "Baseline" || rows[1].Mechanism != "ADDICT" {
		t.Fatalf("distributed stream wrong: n=%d rows=%+v", n, rows)
	}

	// The response cache now holds the distributed run's bytes under the
	// spec-only key; a plain serial request must hit that cell and return
	// bytes identical to the serial engine's own output.
	body, _ := json.Marshal(struct {
		Spec addict.SweepSpec `json:"spec"`
	}{spec})
	resp, err := http.Post(c.BaseURL()+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("distributed bytes differ from serial engine output:\n got: %q\nwant: %q", got, want.Bytes())
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist == nil || !m.Dist.Done || m.Dist.Units != 2 {
		t.Fatalf("dist summary not exposed in metrics: %+v", m.Dist)
	}
	if len(m.Dist.Workers) != 2 {
		t.Errorf("want 2 workers in dist summary, got %+v", m.Dist.Workers)
	}
	if m.Computations["sweep"] != 1 {
		t.Errorf("want 1 sweep computation (serial repeat cached), got %d", m.Computations["sweep"])
	}
}

// TestMetricsEndpoint: /metrics re-renders the expvar counters as
// Prometheus text exposition — deterministic, parseable lines covering
// the scalar counters, the per-endpoint maps, and the flattened cache
// stats.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, 0)
	ctx := context.Background()
	if _, err := c.Profile(ctx, "synth:uniform-ro"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"addict_serve_requests_total{key=\"profile\"} 1\n",
		"addict_serve_computations_total{key=\"profile\"} 1\n",
		"addict_serve_rejected 0\n",
		"addict_serve_active_runs 0\n",
		"addict_serve_engine_cache_hits ",
		"addict_serve_response_cache_entries 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n--- exposition ---\n%s", want, text)
		}
	}
	// Two scrapes of an idle server are byte-identical (sorted maps, no
	// timestamps) — the determinism the rest of the repo holds everywhere.
	resp2, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, body2) {
		t.Error("two idle /metrics scrapes differ; exposition is not deterministic")
	}
}
