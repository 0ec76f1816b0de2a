// Command perfbench is the repository's benchmark. Each run times one
// workload — a sweep grid driven through the public addict.Engine API —
// checks the rows it produced, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench --workload cold-sweep --seed 42 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics (host time: the
// simulator's speed, setup time and memory). With --trace 1 it instead
// drives the same units through each layer's entry points, records a span
// around every call, and reports per-layer metrics. run.sh builds the
// program from the checkout and runs it; README.md explains the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome: units attempted and failed, and its metrics.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	output    expectation // the workload's rows, as a recorded expectation
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold-sweep, warm-sweep or geometry-sweep")
	seed := fs.Int64("seed", 42, "seed of the generated transaction traces")
	seconds := fs.Float64("seconds", 20, "least time the timed sweeps run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v and --trace 0 or 1\n", workloadNames)
		return 2
	}
	rep, err := measure(ctx, defaultConfig(*seed), *workload, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs one workload, timed or traced, inside the work directory.
func measure(ctx context.Context, c config, workload string, seconds float64, traced bool) (report, error) {
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		return report{}, err
	}
	if traced {
		return runTraced(ctx, c, workload)
	}
	return runUntraced(ctx, c, workload, seconds)
}

// printReport writes every metric, one per line, to standard error and the
// result object as the last line of standard output.
func printReport(stdout io.Writer, rep report) error {
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Fprintf(os.Stderr, "%-36s %16.6f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
