package addict_test

import (
	"context"
	"sync"
	"testing"

	"addict"
	"addict/internal/exp"
	"addict/internal/sim"
	"addict/internal/sweep"
)

// TestConcurrentScheduleDeterministic replays one trace set under every
// mechanism from many goroutines at once. All scheduler and simulator state
// must be per-run (this test is the -race probe for internal/sched and
// internal/sim), and every goroutine must compute identical results over
// the shared read-only trace set and profile.
func TestConcurrentScheduleDeterministic(t *testing.T) {
	w := addict.NewTPCB(3, 0.05)
	profSet := addict.GenerateTraces(w, 60)
	prof := addict.FindMigrationPoints(profSet)
	evalSet := addict.GenerateTraces(w, 60)
	opts := addict.Options{Profile: prof}

	const goroutines = 12
	results := make([]map[addict.Mechanism]addict.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make(map[addict.Mechanism]addict.Result, len(addict.Mechanisms))
			for _, mech := range addict.Mechanisms {
				r, err := addict.Schedule(mech, evalSet, opts)
				if err != nil {
					t.Errorf("goroutine %d: %s: %v", g, mech, err)
					return
				}
				out[mech] = r
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	ref := results[0]
	if ref == nil {
		t.Fatal("no reference result")
	}
	for g := 1; g < goroutines; g++ {
		for _, mech := range addict.Mechanisms {
			a, b := ref[mech], results[g][mech]
			if a.Makespan != b.Makespan || a.TotalLatency != b.TotalLatency ||
				a.Migrations != b.Migrations || a.Machine.L1IMisses != b.Machine.L1IMisses {
				t.Errorf("goroutine %d: %s result diverged (makespan %d vs %d)", g, mech, a.Makespan, b.Makespan)
			}
		}
	}
}

// TestScheduleAllMatchesSerialSchedule: the concurrent facade must return
// exactly what four serial Schedule calls return.
func TestScheduleAllMatchesSerialSchedule(t *testing.T) {
	w := addict.NewTPCC(3, 0.05)
	profSet := addict.GenerateTraces(w, 60)
	prof := addict.FindMigrationPoints(profSet)
	evalSet := addict.GenerateTraces(w, 60)
	opts := addict.Options{Profile: prof}

	all, err := addict.NewEngine(addict.WithWorkers(4)).ScheduleSet(context.Background(), evalSet, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(addict.Mechanisms) {
		t.Fatalf("ScheduleAll returned %d results, want %d", len(all), len(addict.Mechanisms))
	}
	for _, mech := range addict.Mechanisms {
		serial, err := addict.Schedule(mech, evalSet, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := all[mech]
		if got.Makespan != serial.Makespan || got.TotalLatency != serial.TotalLatency ||
			got.Machine.L1IMisses != serial.Machine.L1IMisses {
			t.Errorf("%s: ScheduleAll makespan %d != serial %d", mech, got.Makespan, serial.Makespan)
		}
	}
}

// TestScheduleAllRequiresProfile: ADDICT's missing-profile error must
// surface through the concurrent path.
func TestScheduleAllRequiresProfile(t *testing.T) {
	w := addict.NewTPCB(3, 0.05)
	set := addict.GenerateTraces(w, 20)
	if _, err := addict.NewEngine(addict.WithWorkers(2)).ScheduleSet(context.Background(), set, addict.Options{}); err == nil {
		t.Error("ScheduleSet without a profile must fail (ADDICT needs migration points)")
	}
}

// TestGenerateTracesShardedWorkerIndependent checks the public sharded
// generator end to end, for a TPC and a synthetic registry name.
func TestGenerateTracesShardedWorkerIndependent(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"TPC-B", "synth:uniform-ro"} {
		gen := func(workers int) (*addict.TraceSet, error) {
			e := addict.NewEngine(addict.WithSeed(11), addict.WithScale(0.05), addict.WithWorkers(workers))
			return e.GenerateTraces(ctx, name, 30)
		}
		ref, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			s, err := gen(workers)
			if err != nil {
				t.Fatal(err)
			}
			if s.Digest() != ref.Digest() {
				t.Errorf("%s: sharded generation digest with %d workers differs from serial", name, workers)
			}
		}
	}
	if _, err := addict.NewEngine().GenerateTraces(ctx, "nope", 10); err == nil {
		t.Error("unknown workload must error")
	}
}

// TestConcurrentWorkbenchAndSchedule mixes concurrent Workbench lookups
// with facade Schedule calls — the cross-layer stress the race suite runs
// under `go test -race`.
func TestConcurrentWorkbenchAndSchedule(t *testing.T) {
	p := exp.Params{Seed: 5, Scale: 0.05, ProfileTraces: 50, EvalTraces: 50, StabilityTraces: 60, Machine: sim.Shallow()}
	arts := sweep.NewArtifacts(p.Seed, p.Scale, p.ProfileTraces, p.EvalTraces, 4)
	wb := exp.NewWorkbenchOn(context.Background(), p, arts)

	w := addict.NewTPCE(7, 0.05)
	profSet := addict.GenerateTraces(w, 50)
	prof := addict.FindMigrationPoints(profSet)
	evalSet := addict.GenerateTraces(w, 50)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := exp.Workloads[g%len(exp.Workloads)]
			wb.ProfileSet(name)
			wb.Profile(name)
			wb.Result(name, addict.Mechanisms[g%len(addict.Mechanisms)])
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mech := addict.Mechanisms[g%len(addict.Mechanisms)]
			if _, err := addict.Schedule(mech, evalSet, addict.Options{Profile: prof}); err != nil {
				t.Errorf("Schedule(%s): %v", mech, err)
			}
		}(g)
	}
	wg.Wait()
}
