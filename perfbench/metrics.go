package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the single
// source of the names BENCHMARK.json declares; TestMetricsMatchManifest
// keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are printed by every untraced run, whatever the workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p90", "ms", "lower"},
	{"ratio.mean", "ratio", "lower"},
	{"ok_frac", "frac", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// solverNames are the registry solvers the workloads dispatch to.
var solverNames = []string{"ptas", "class-uniform-ra", "class-uniform-pt", "rounding"}

// perLayer are printed by every traced run; every workload measures each
// of them (both run rounding solves, which the traced run replays layer by
// layer).
var perLayer = []metricDef{
	{"trace.ops_per_s.untraced", "1/s", "higher"},
	{"trace.ops_per_s.traced", "1/s", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.replay_agree_frac", "frac", "higher"},
	{"sched.overhead_ms.p50", "ms", "lower"},
	{"engine.solver_ms.rounding.p50", "ms", "lower"},
	{"engine.solver_calls.rounding", "count", "higher"},
	{"engine.cache_hit_frac", "frac", "higher"},
	{"core.fingerprint_ms.p50", "ms", "lower"},
	{"baseline.greedy_ms.p50", "ms", "lower"},
	{"rounding.build_ms.p50", "ms", "lower"},
	{"rounding.resolve_ms.feasible.p50", "ms", "lower"},
	{"rounding.resolve_ms.infeasible.p50", "ms", "lower"},
	{"rounding.round_ms.p50", "ms", "lower"},
	{"rounding.lp_share", "frac", "lower"},
	{"dual.guesses_per_solve", "count", "lower"},
	{"dual.accept_frac", "frac", "higher"},
	{"lp.pivots.build", "count", "lower"},
	{"lp.pivots_per_guess.feasible", "count", "lower"},
	{"lp.pivots_per_guess.infeasible", "count", "lower"},
	{"lp.us_per_pivot", "us", "lower"},
	{"lp.presolve_row_red", "frac", "higher"},
	{"lp.presolve_bypass_frac", "frac", "lower"},
	{"latency.samples", "count", "higher"},
}

// workloadLayers are the per-layer metrics of layers only some workloads
// exercise (serve, the non-LP solvers, local search, the delta path). A
// traced run prints the ones it measured in the detail line's "layers"
// object rather than as zeros in the result line.
var workloadLayers = []metricDef{
	{"engine.solver_ms.ptas.p50", "ms", "lower"},
	{"engine.solver_calls.ptas", "count", "higher"},
	{"engine.solver_ms.class-uniform-ra.p50", "ms", "lower"},
	{"engine.solver_calls.class-uniform-ra", "count", "higher"},
	{"engine.solver_ms.class-uniform-pt.p50", "ms", "lower"},
	{"engine.solver_calls.class-uniform-pt", "count", "higher"},
	{"engine.gov_wait_ms", "ms", "lower"},
	{"serve.overhead_ms.p50", "ms", "lower"},
	{"serve.coalesce_hit_frac", "frac", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.dup_frac", "frac", "higher"},
	{"core.delta_apply_ms.p50", "ms", "lower"},
	{"rounding.apply_delta_ms.p50", "ms", "lower"},
	{"ptas.nodes_per_solve", "count", "lower"},
	{"improve.ms.p50", "ms", "lower"},
	{"improve.applied", "count", "higher"},
}

// report is what one run of a workload measured.
type report struct {
	// attempted counts operations started in the measured window; failed
	// those that errored, were refused, or whose output the checker
	// rejected; checkFails the checker rejections alone.
	attempted, failed, checkFails int
	metrics                       map[string]float64
	// detail is printed as a JSON line ahead of the result: shares,
	// sample counts, replay counts, span totals, workload-specific layers.
	detail map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, detail: map[string]any{}}
}

// emit writes the detail line and then the result line: one JSON object
// with exactly correct, attempted, failed and metrics, the metrics being
// every def in defs. A def the run did not measure is an error, never a
// printed 0; a measured workload-specific layer metric goes to the detail
// line's layers object.
func emit(w io.Writer, rep *report, defs []metricDef) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]val, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = val{Value: v, Unit: d.Unit}
	}
	layers := map[string]val{}
	for _, d := range workloadLayers {
		if v, ok := rep.metrics[d.Name]; ok {
			layers[d.Name] = val{Value: v, Unit: d.Unit}
		}
	}
	for name, v := range rep.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		if _, ok := out[name]; !ok {
			if _, ok := layers[name]; !ok {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	if len(layers) > 0 {
		rep.detail["layers"] = layers
	}
	detail, err := json.Marshal(rep.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail %s\n", detail)
	attempted := rep.attempted
	if attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.checkFails == 0, attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// putMedian, putMean and putFrac report a metric only when it has a
// sample: a metric left out is refused by emit instead of printed as 0.
func (rep *report) putMedian(name string, xs []float64) {
	if len(xs) > 0 {
		rep.metrics[name] = median(xs)
	}
}

func (rep *report) putMean(name string, xs []float64) {
	if len(xs) > 0 {
		rep.metrics[name] = mean(xs)
	}
}

func (rep *report) putFrac(name string, num, den int64) {
	if den > 0 {
		rep.metrics[name] = float64(num) / float64(den)
	}
}

// --- sample statistics ------------------------------------------------------

// quantile is the q-quantile of xs, interpolated linearly between the
// order statistics (0 for an empty sample). Interpolation keeps small
// samples from jumping to another order statistic when two samples swap
// places.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- process resources ------------------------------------------------------

// allocMeter sums the bytes allocated between each start and the stop
// that follows it, so that only the operations themselves are counted.
type allocMeter struct{ before, total uint64 }

func (a *allocMeter) start() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.before = m.TotalAlloc
}

func (a *allocMeter) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.total += m.TotalAlloc - a.before
}

func (a *allocMeter) mb() float64 { return float64(a.total) / 1e6 }

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
