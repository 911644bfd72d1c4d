// Command perfbench is the repository benchmark: it drives the public
// scheduling API from outside, in one process, on inputs generated from
// --seed, re-checks every output, and prints the end-to-end metrics of a
// workload (--trace 0) or its per-layer metrics (--trace 1). See README.md
// for the workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload service-mix --seed 3 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it, prefixed
// "detail", carries sample counts, traffic shares, replay agreement and,
// in a traced run, the recorded spans' totals per layer call.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// benchProcs is the benchmark's GOMAXPROCS. The workloads are one closed-loop
// client each and the solvers' default paths are sequential, so a second P
// only spreads the client, the server and the garbage collector over two
// vCPUs of a shared host: on the 2-vCPU machine the benchmark was built on,
// service-mix with two Ps ran 12% slower and its throughput over three
// runs of the same code ranged over 26% rather than 9%. A change that
// parallelizes a default path would need more than one.
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	cfg := config{Log: stderr}
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 40, "how long the operations of one run are measured")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.Workload, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if !(cfg.Seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	cfg.Trace = *trace == 1
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := emit(stdout, rep, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	return 0
}
