package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	sched "repro"
	"repro/internal/core"
	"repro/internal/lp"
)

// config is one benchmark run's settings, from the command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Log receives progress and failure messages (standard error).
	Log io.Writer
}

func (c config) window() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"online-stream": runOnline,
	"service-mix":   runService,
}

// opLog accumulates the outcome of every operation of a measured phase.
// It is safe for concurrent use.
type opLog struct {
	mu         sync.Mutex
	lat        []float64 // ms, successful operations only
	ratios     []float64
	attempted  int
	failed     int
	checkFails int
	busy       time.Duration
	log        io.Writer
}

// ok records a successful operation whose output passed the checker.
func (l *opLog) ok(d time.Duration, ratio float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.busy += d
	l.lat = append(l.lat, ms(d))
	l.ratios = append(l.ratios, ratio)
}

// fail records an operation that errored or was refused; checkErr marks a
// checker rejection of an output the program returned.
func (l *opLog) fail(d time.Duration, err error, checkErr bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	l.busy += d
	if checkErr {
		l.checkFails++
	}
	if l.log != nil && l.failed <= 5 {
		fmt.Fprintf(l.log, "perfbench: operation failed: %v\n", err)
	}
}

func (l *opLog) succeeded() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted - l.failed
}

// count adds the phases' operation counts to the report.
func (rep *report) count(logs ...*opLog) {
	for _, l := range logs {
		l.mu.Lock()
		rep.attempted += l.attempted
		rep.failed += l.failed
		rep.checkFails += l.checkFails
		l.mu.Unlock()
	}
}

// fill fills the end-to-end metrics of a phase that ran for wall; setup_s
// is the median of the set-up times.
func (l *opLog) fill(rep *report, wall time.Duration, setups []float64, allocMB float64) error {
	rep.count(l)
	l.mu.Lock()
	defer l.mu.Unlock()
	good := l.attempted - l.failed
	if good == 0 {
		return fmt.Errorf("no operation succeeded (%d attempted)", l.attempted)
	}
	rss, err := rssPeakMB()
	if err != nil {
		return err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["ops_per_s"] = float64(good) / wall.Seconds()
	rep.metrics["latency_ms.p50"] = quantile(l.lat, 0.5)
	rep.metrics["latency_ms.p90"] = quantile(l.lat, 0.9)
	rep.metrics["ratio.mean"] = mean(l.ratios)
	rep.metrics["ok_frac"] = float64(good) / float64(l.attempted)
	rep.metrics["alloc_mb_per_op"] = allocMB / float64(l.attempted)
	rep.metrics["rss_peak_mb"] = rss
	rep.detail["latency_samples"] = len(l.lat)
	rep.detail["setup_samples"] = len(setups)
	rep.detail["setup_s_p10_p90"] = []float64{quantile(setups, 0.1), quantile(setups, 0.9)}
	return nil
}

// checkResult runs the output checker on an engine result.
func checkResult(in *core.Instance, res sched.Result) error {
	if res.Schedule == nil {
		return fmt.Errorf("result carries no schedule")
	}
	return checkSchedule(in, res.Schedule.Assign, res.Makespan, res.LowerBound)
}

// traceRates reports the untraced and traced phases' operation rates and
// the overhead the tracing costs.
func traceRates(rep *report, untraced, traced *opLog) {
	u := float64(untraced.succeeded()) / untraced.busy.Seconds()
	t := float64(traced.succeeded()) / traced.busy.Seconds()
	rep.metrics["trace.ops_per_s.untraced"] = u
	rep.metrics["trace.ops_per_s.traced"] = t
	rep.metrics["trace.overhead_frac"] = 1 - t/u
}

// presolveMetrics reports what the LP presolve did between two snapshots
// of its process-wide totals.
func presolveMetrics(rep *report, a, b lp.PresolveTotalsSnapshot) {
	rows := b.RowsBefore - a.RowsBefore
	rep.putFrac("lp.presolve_row_red", rows-(b.RowsAfter-a.RowsAfter), rows)
	// A bypass is a presolved backend falling back to the full problem
	// when a mutation defeats the reduction.
	bypasses := b.Bypasses - a.Bypasses
	rep.putFrac("lp.presolve_bypass_frac", bypasses, b.Runs-a.Runs+bypasses)
	rep.detail["presolve_runs"] = b.Runs - a.Runs
}
