package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"addict/cmd/internal/cmdtest"
)

// TestListExperiments checks -list prints the experiment ids.
func TestListExperiments(t *testing.T) {
	exe := cmdtest.Build(t)
	stdout, _ := cmdtest.Run(t, exe, "-list")
	for _, id := range []string{"table1", "fig5", "ablations"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// TestSingleExperiment runs the cheapest experiment end to end.
func TestSingleExperiment(t *testing.T) {
	exe := cmdtest.Build(t)
	stdout, _ := cmdtest.Run(t, exe, "-exp", "table1")
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("table1 output missing its header:\n%s", stdout)
	}
}

// TestBenchJSON runs the benchmark harness at tiny sizes and validates the
// emitted BENCH file, including the baseline/speedup wiring.
func TestBenchJSON(t *testing.T) {
	exe := cmdtest.Build(t)
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	cmdtest.Run(t, exe, "-json", first, "-traces", "8", "-scale", "0.05")

	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Baseline *json.RawMessage `json:"baseline"`
		Current  *struct {
			Schema string `json:"schema"`
			Replay struct {
				Events       uint64  `json:"events"`
				EventsPerSec float64 `json:"events_per_sec"`
			} `json:"replay"`
			Cells []struct {
				Workload  string `json:"workload"`
				Mechanism string `json:"mechanism"`
			} `json:"cells"`
		} `json:"current"`
		Speedup float64 `json:"speedup_events_per_sec"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("parsing %s: %v", first, err)
	}
	if file.Current == nil || file.Current.Schema != "addict-bench/v2" {
		t.Fatalf("bad schema in %s", data)
	}
	if file.Current.Replay.EventsPerSec <= 0 || file.Current.Replay.Events == 0 {
		t.Fatalf("degenerate replay summary: %s", data)
	}
	if got, want := len(file.Current.Cells), 5*4+2; got != want {
		t.Fatalf("%d cells, want %d (3 TPC + 2 synth workloads × 4 mechanisms, plus the two speculative extra cells)", got, want)
	}
	if file.Speedup != 0 {
		t.Fatalf("speedup recorded without a baseline: %v", file.Speedup)
	}

	// Second run against the first as baseline must record a speedup.
	second := filepath.Join(dir, "second.json")
	cmdtest.Run(t, exe, "-json", second, "-baseline", first, "-traces", "8", "-scale", "0.05")
	data, err = os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	var withBase struct {
		Baseline *json.RawMessage `json:"baseline"`
		Speedup  float64          `json:"speedup_events_per_sec"`
	}
	if err := json.Unmarshal(data, &withBase); err != nil {
		t.Fatal(err)
	}
	if withBase.Baseline == nil || withBase.Speedup <= 0 {
		t.Fatalf("baseline run missing baseline or speedup")
	}
}

// TestMaxRegressGate exercises the CI bench-regression gate both ways: a
// run against its own recent report passes a generous floor, and a
// baseline with artificially inflated throughput (the injected slowdown,
// seen from the other side) fails it.
func TestMaxRegressGate(t *testing.T) {
	exe := cmdtest.Build(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cmdtest.Run(t, exe, "-json", base, "-traces", "8", "-scale", "0.05")

	// Same machine, same sizes: well within a 60% floor.
	out := filepath.Join(dir, "gated.json")
	_, stderr := cmdtest.Run(t, exe, "-json", out, "-baseline", base,
		"-traces", "8", "-scale", "0.05", "-max-regress", "0.6")
	if !strings.Contains(stderr, "gate PASS") {
		t.Errorf("gate pass not reported:\n%s", stderr)
	}

	// Inflate the baseline's events/sec 4x: the fresh run now looks like a
	// >15% regression and the gate must fail.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	cur := f["current"].(map[string]any)
	replay := cur["replay"].(map[string]any)
	replay["events_per_sec"] = replay["events_per_sec"].(float64) * 4
	inflated, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	slow := filepath.Join(dir, "inflated.json")
	if err := os.WriteFile(slow, inflated, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-json", filepath.Join(dir, "fail.json"), "-baseline", slow,
		"-traces", "8", "-scale", "0.05", "-max-regress", "0.15")
	outb, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("gate passed against a 4x-inflated baseline:\n%s", outb)
	}
	if !strings.Contains(string(outb), "performance regression") {
		t.Errorf("failure output missing diagnosis:\n%s", outb)
	}

	// A baseline measured at different sizes is not comparable; the gate
	// must refuse rather than judge the ratio.
	cmd = exec.Command(exe, "-json", filepath.Join(dir, "mismatch.json"), "-baseline", base,
		"-traces", "6", "-scale", "0.05", "-max-regress", "0.15")
	outb, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("gate accepted a mismatched-config baseline:\n%s", outb)
	}
	if !strings.Contains(string(outb), "not comparable") {
		t.Errorf("mismatch output missing diagnosis:\n%s", outb)
	}

	// -max-regress without the harness flags is a usage error.
	if err := exec.Command(exe, "-max-regress", "0.15").Run(); err == nil {
		t.Error("-max-regress without -json accepted")
	}
	if err := exec.Command(exe, "-json", filepath.Join(dir, "x.json"), "-max-regress", "0.15").Run(); err == nil {
		t.Error("-max-regress without -baseline accepted")
	}
	if err := exec.Command(exe, "-max-cell-regress", "0.15").Run(); err == nil {
		t.Error("-max-cell-regress without -json accepted")
	}
}

// TestMaxCellRegressGate exercises the per-cell normalized gate at the
// command level: a run against its own recent report passes and writes
// the verdict into the JSON report and the -verdict file; a baseline with
// one non-reference cell inflated — a single-cell regression the
// aggregate barely notices — fails on exactly that cell.
func TestMaxCellRegressGate(t *testing.T) {
	exe := cmdtest.Build(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cmdtest.Run(t, exe, "-json", base, "-traces", "8", "-scale", "0.05")

	// Pass case: generous per-cell floor, verdict table lands everywhere.
	out := filepath.Join(dir, "gated.json")
	verdictTxt := filepath.Join(dir, "verdict.txt")
	_, stderr := cmdtest.Run(t, exe, "-json", out, "-baseline", base,
		"-traces", "8", "-scale", "0.05", "-max-cell-regress", "0.9", "-verdict", verdictTxt)
	if !strings.Contains(stderr, "gate PASS") {
		t.Errorf("per-cell gate pass not reported:\n%s", stderr)
	}
	if !strings.Contains(stderr, "per-cell gate") {
		t.Errorf("verdict table missing from stderr:\n%s", stderr)
	}
	vt, err := os.ReadFile(verdictTxt)
	if err != nil || !strings.Contains(string(vt), "per-cell gate") {
		t.Errorf("-verdict file missing or empty: %v\n%s", err, vt)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var gated struct {
		Gate *struct {
			Pass  bool `json:"pass"`
			Cells []struct {
				Workload  string  `json:"workload"`
				Mechanism string  `json:"mechanism"`
				NormRatio float64 `json:"norm_ratio"`
			} `json:"cells"`
		} `json:"gate"`
		SpeedupCells []struct {
			Speedup float64 `json:"speedup_events_per_sec"`
		} `json:"speedup_cells"`
	}
	if err := json.Unmarshal(data, &gated); err != nil {
		t.Fatal(err)
	}
	if gated.Gate == nil || !gated.Gate.Pass || len(gated.Gate.Cells) != 5*4+2 {
		t.Fatalf("JSON report missing the gate verdict: %s", data)
	}
	if len(gated.SpeedupCells) != 5*4+2 {
		t.Fatalf("%d per-cell speedups in JSON report, want %d", len(gated.SpeedupCells), 5*4+2)
	}

	// Fail case: inflate one non-reference cell of the baseline 100x. The
	// aggregate moves a little; the normalized ratio for that one cell
	// drops to ~0.01 and the per-cell gate must fail on it. The factor sits
	// far above the timing noise of a -traces 8 run (un-bumped cells have
	// been seen near 0.3x on a loaded 2-CPU machine), so the bumped cell is
	// the worst one by construction.
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	cells := f["current"].(map[string]any)["cells"].([]any)
	bumped := ""
	for _, c := range cells {
		cell := c.(map[string]any)
		if cell["mechanism"].(string) == "STREX" {
			cell["events_per_sec"] = cell["events_per_sec"].(float64) * 100
			bumped = cell["workload"].(string) + "/STREX"
			break
		}
	}
	if bumped == "" {
		t.Fatal("no STREX cell found to inflate")
	}
	inflated, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	slow := filepath.Join(dir, "cell-inflated.json")
	if err := os.WriteFile(slow, inflated, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-json", filepath.Join(dir, "fail.json"), "-baseline", slow,
		"-traces", "8", "-scale", "0.05", "-max-cell-regress", "0.5")
	outb, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("per-cell gate passed a 100x single-cell baseline inflation:\n%s", outb)
	}
	if !strings.Contains(string(outb), "performance regression") || !strings.Contains(string(outb), bumped) {
		t.Errorf("failure output missing diagnosis of worst cell %s:\n%s", bumped, outb)
	}
}

// TestZeroSeedFlag: an explicit -seed 0 must reach the harness as seed 0
// instead of being swallowed by the zero-means-default sentinel.
func TestZeroSeedFlag(t *testing.T) {
	exe := cmdtest.Build(t)
	out := filepath.Join(t.TempDir(), "seed0.json")
	cmdtest.Run(t, exe, "-json", out, "-seed", "0", "-traces", "6", "-scale", "0.05")
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Current *struct {
			Seed    int64 `json:"seed"`
			MinRuns int   `json:"min_runs"`
		} `json:"current"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Current == nil || file.Current.Seed != 0 {
		t.Fatalf("explicit -seed 0 recorded as seed %+v, want 0", file.Current)
	}
	if file.Current.MinRuns == 0 {
		t.Errorf("report does not record its measurement bounds")
	}
}

// TestInterruptExitsPromptly: SIGINT on the full default-size report must
// exit non-zero within the 2-second acceptance bound, flushing whatever
// sections had already streamed.
func TestInterruptExitsPromptly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	exe := cmdtest.Build(t)
	cmd := exec.Command(exe, "-parallel", "2")
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
		t.Error("interrupted report exited 0, want non-zero")
	}
	if elapsed > 2*time.Second {
		t.Errorf("interrupted report took %v to exit, want <= 2s", elapsed)
	}
}
