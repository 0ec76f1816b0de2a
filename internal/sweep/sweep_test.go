package sweep

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"addict/internal/sched"
	"addict/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the sweep golden files under testdata/")

// testSpec is the acceptance grid: 2 L1-I sizes x 2 mechanisms x 3 thread
// counts = 12 units on one workload, at tiny trace counts.
func testSpec() Spec {
	return Spec{
		Seed:          7,
		Scale:         0.1,
		ProfileTraces: 120,
		EvalTraces:    60,
		Workloads:     []string{"TPC-B"},
		Mechanisms:    []string{"Baseline", "ADDICT"},
		L1ISizes:      []int{16 << 10, 32 << 10},
		Threads:       []int{4, 8, 16},
	}
}

func runToBytes(t *testing.T, spec Spec, format string, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	em, err := NewEmitter(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), spec, em, workers, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff describes the first byte position where two outputs diverge.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestSweepWorkerCountByteIdentity is the subsystem's headline guarantee
// (mirroring TestRunAllParallelMatchesSerial): the 12-unit acceptance grid
// must emit byte-identical CSV at 1, 2, and 8 workers.
func TestSweepWorkerCountByteIdentity(t *testing.T) {
	spec := testSpec()
	want := runToBytes(t, spec, "csv", 1)
	if len(want) == 0 {
		t.Fatal("serial sweep produced no output")
	}
	for _, workers := range []int{2, 8} {
		got := runToBytes(t, spec, "csv", workers)
		if !bytes.Equal(got, want) {
			t.Errorf("sweep output (workers=%d) diverges from serial: %s", workers, firstDiff(want, got))
		}
	}
}

// TestSweepCSVGolden locks the CSV emitter's bytes for the acceptance grid.
// Regenerate with:
//
//	go test ./internal/sweep -run TestSweepCSVGolden -update
func TestSweepCSVGolden(t *testing.T) {
	got := runToBytes(t, testSpec(), "csv", 4)
	path := filepath.Join("testdata", "tpcb_grid_csv.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to regenerate): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CSV sweep output changed from golden %s: %s\n(regenerate with -update if intended)",
			path, firstDiff(want, got))
	}
}

// TestSweepFormatsAgree checks that every emitter reports the same units in
// the same order with non-empty output.
func TestSweepFormatsAgree(t *testing.T) {
	spec := testSpec()
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range Formats {
		out := string(runToBytes(t, spec, format, 4))
		for _, u := range units {
			if !strings.Contains(out, u.ID) {
				t.Errorf("%s output missing unit %s", format, u.ID)
			}
		}
		lines := strings.Count(out, "\n")
		if lines < len(units) {
			t.Errorf("%s output has %d lines for %d units", format, lines, len(units))
		}
	}
}

func TestExpandCountsAndOrder(t *testing.T) {
	units, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 12 {
		t.Fatalf("expanded %d units, want 12", len(units))
	}
	// Innermost axis (threads) varies fastest; mechanisms before L1-I.
	if units[0].Threads != 4 || units[1].Threads != 8 || units[2].Threads != 16 {
		t.Errorf("threads axis not innermost: %v %v %v", units[0].Threads, units[1].Threads, units[2].Threads)
	}
	if units[0].Machine.L1I.SizeBytes != 16<<10 || units[3].Machine.L1I.SizeBytes != 32<<10 {
		t.Errorf("L1-I axis order wrong: %d then %d", units[0].Machine.L1I.SizeBytes, units[3].Machine.L1I.SizeBytes)
	}
	if units[0].Mechanism != sched.Baseline || units[6].Mechanism != sched.ADDICT {
		t.Errorf("mechanism axis order wrong: %s then %s", units[0].Mechanism, units[6].Mechanism)
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.ID] {
			t.Errorf("duplicate unit ID %s", u.ID)
		}
		seen[u.ID] = true
	}
}

// TestUnitIDStable pins the ID scheme: derived from the unit's values
// alone, so it must not move when unrelated axes are added to the grid.
func TestUnitIDStable(t *testing.T) {
	u := NewUnit("TPC-C", sched.ADDICT, sim.Shallow(), 8, 4)
	want := "TPC-C/ADDICT/c16/shallow/l1i32K.8/llc16M.16/hit16/mem105/t8/a4"
	if u.ID != want {
		t.Errorf("unit ID = %q, want %q", u.ID, want)
	}
	spec := Spec{Workloads: []string{"TPC-C"}, Mechanisms: []string{"ADDICT"},
		Threads: []int{8}, AdmitLimits: []int{4}}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || units[0].ID != want {
		t.Errorf("expanded ID = %q, want %q", units[0].ID, want)
	}
	spec.Cores = []int{8}
	wider, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if wider[0].ID == want {
		t.Error("cores override did not change the unit ID")
	}
}

func TestExpandDefaults(t *testing.T) {
	units, err := Spec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 4 mechanisms, everything else at base.
	if len(units) != 12 {
		t.Fatalf("default spec expanded to %d units, want 12", len(units))
	}
	base := sim.Shallow()
	for _, u := range units {
		if u.Machine.Cores != base.Cores || u.Machine.L1I != base.L1I {
			t.Errorf("%s: machine differs from base", u.ID)
		}
	}
}

func TestExpandRejectsBadGrid(t *testing.T) {
	if _, err := (Spec{Mechanisms: []string{"FANCY"}}).Expand(); err == nil {
		t.Error("unknown mechanism not rejected")
	}
	// Workload names resolve at expansion, so sweep.Run and the
	// distributed coordinator refuse them before any unit runs.
	if _, err := (Spec{Workloads: []string{"TPC-B", "TPC-Z"}}).Expand(); err == nil {
		t.Error("unknown workload not rejected")
	}
	if _, err := (Spec{Workloads: []string{"synth:no-such-preset"}}).Expand(); err == nil {
		t.Error("unknown encoded synthetic workload not rejected")
	}
	if _, err := (Spec{L1ISizes: []int{33 << 10}}).Expand(); err == nil {
		t.Error("non-power-of-two L1-I size not rejected")
	}
	if _, err := (Spec{Cores: []int{12}}).Expand(); err == nil {
		t.Error("core count with non-power-of-two bank derivation not rejected")
	}
	// Zero/negative axis values must fail expansion, not silently run the
	// base machine.
	if _, err := (Spec{L1ISizes: []int{0, 32 << 10}}).Expand(); err == nil {
		t.Error("zero L1-I size not rejected")
	}
	if _, err := (Spec{L1ISizes: []int{-16 << 10}}).Expand(); err == nil {
		t.Error("negative L1-I size not rejected")
	}
	if _, err := (Spec{MemCycles: []uint64{0}}).Expand(); err == nil {
		t.Error("zero memory latency not rejected")
	}
	if _, err := (Spec{Threads: []int{-1}}).Expand(); err == nil {
		t.Error("negative thread count not rejected")
	}
	// 0 stays meaningful for the load axes.
	if _, err := (Spec{Threads: []int{0, 8}}).Expand(); err != nil {
		t.Errorf("zero thread count (mechanism default) rejected: %v", err)
	}
	// Base parameters are validated too (withDefaults only replaces 0).
	if _, err := (Spec{Scale: -1}).Expand(); err == nil {
		t.Error("negative scale not rejected")
	}
	if _, err := (Spec{ProfileTraces: -500}).Expand(); err == nil {
		t.Error("negative profile trace count not rejected")
	}
}

func TestOverridesDerivedFields(t *testing.T) {
	base := sim.Shallow()
	got, err := base.Apply(sim.Overrides{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != 8 {
		t.Errorf("cores = %d, want 8", got.Cores)
	}
	if got.Shared.SizeBytes != 8<<20 {
		t.Errorf("shared size = %d, want %d (1MB per core)", got.Shared.SizeBytes, 8<<20)
	}
	if got.SharedBanks != 8 {
		t.Errorf("banks = %d, want 8", got.SharedBanks)
	}
	// An explicit LLC size wins over the per-core derivation.
	got, err = base.Apply(sim.Overrides{Cores: 8, SharedSizeBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got.Shared.SizeBytes != 4<<20 {
		t.Errorf("explicit shared size = %d, want %d", got.Shared.SizeBytes, 4<<20)
	}
	// Zero overrides change nothing.
	got, err = base.Apply(sim.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Error("zero overrides altered the configuration")
	}
	// Negative overrides are rejected rather than treated as "keep".
	if _, err := base.Apply(sim.Overrides{L1ISizeBytes: -1}); err == nil {
		t.Error("negative override not rejected")
	}
}

// TestAdmitLimitAxis checks the admission cap reaches the executor: a
// 1-admit run must serialize transactions, stretching the makespan well
// beyond the default run's.
func TestAdmitLimitAxis(t *testing.T) {
	spec := Spec{
		Seed: 7, Scale: 0.1, ProfileTraces: 60, EvalTraces: 40,
		Workloads:   []string{"TPC-B"},
		Mechanisms:  []string{"Baseline"},
		AdmitLimits: []int{0, 1},
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	arts := NewArtifacts(spec.Seed, spec.Scale, spec.ProfileTraces, spec.EvalTraces, 1)
	free, err := RunUnit(context.Background(), arts, units[0])
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunUnit(context.Background(), arts, units[1])
	if err != nil {
		t.Fatal(err)
	}
	if serial.Makespan <= free.Makespan {
		t.Errorf("admit=1 makespan %d not above unbounded %d", serial.Makespan, free.Makespan)
	}
}
