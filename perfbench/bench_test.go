package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks the default run so every workload finishes in seconds.
func tinyConfig(t *testing.T) config {
	c := defaultConfig(42)
	c.Scale = 0.05
	c.ProfileTraces = 20
	c.EvalTraces = 20
	c.Expected = nil
	c.WorkDir = t.TempDir()
	c.ColdSetupReps = 2
	c.WarmSetupReps = 2
	c.DriverMin = time.Millisecond
	return c
}

// declared reads the metric names and units BENCHMARK.json declares for
// the timed (end_to_end) or traced (per_layer) run.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(file[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func measureTiny(t *testing.T, c config, workload string, traced bool) report {
	t.Helper()
	rep, err := measure(context.Background(), c, workload, 0, traced)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return rep
}

// TestSmoke runs every workload timed and traced, twice each, at tiny sizes.
// The printed result must name every declared metric with its unit, the
// runs must succeed, and the rows and every count must repeat exactly.
func TestSmoke(t *testing.T) {
	for _, workload := range workloadNames {
		for _, traced := range []bool{false, true} {
			key := "end_to_end"
			if traced {
				key = "per_layer"
			}
			want := declared(t, key)
			var reps [2]report
			for i := range reps {
				reps[i] = measureTiny(t, tinyConfig(t), workload, traced)
				rep := reps[i]
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("%s traced=%v: %d of %d units failed", workload, traced, rep.failed, rep.attempted)
				}
				var buf bytes.Buffer
				if err := printReport(&buf, rep); err != nil {
					t.Fatal(err)
				}
				var printed struct {
					Correct bool
					Metrics map[string]metric
				}
				if err := json.Unmarshal(buf.Bytes(), &printed); err != nil {
					t.Fatalf("%s: printed result: %v", workload, err)
				}
				if !printed.Correct {
					t.Errorf("%s traced=%v: printed correct=false", workload, traced)
				}
				for name, unit := range want {
					if m, ok := printed.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", workload, traced, name, m, unit)
					}
				}
				if len(printed.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics printed, %d declared", workload, traced, len(printed.Metrics), len(want))
				}
			}
			if reps[0].output != reps[1].output {
				t.Errorf("%s traced=%v: rows %+v then %+v", workload, traced, reps[0].output, reps[1].output)
			}
			for name, unit := range want {
				if unit == "count" && reps[0].metrics[name] != reps[1].metrics[name] {
					t.Errorf("%s traced=%v: count %s is %v then %v", workload, traced, name,
						reps[0].metrics[name].Value, reps[1].metrics[name].Value)
				}
			}
		}
	}
}

// TestWrongDigestFailsUnits records a wrong digest for every workload: each
// run must then fail all the units it attempted.
func TestWrongDigestFailsUnits(t *testing.T) {
	for _, workload := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := tinyConfig(t)
			good := measureTiny(t, c, workload, traced)
			exp := coldSweep
			if workload == geometrySweep {
				exp = geometrySweep
			}
			wrong := good.output
			wrong.Digest = strings.Repeat("0", len(wrong.Digest))
			c.Expected = map[expectKey]expectation{{exp, c.Seed}: wrong}
			rep := measureTiny(t, c, workload, traced)
			if rep.failed == 0 || rep.failed != rep.attempted {
				t.Errorf("%s traced=%v: %d of %d units failed with a wrong recorded digest", workload, traced, rep.failed, rep.attempted)
			}
		}
	}
}
