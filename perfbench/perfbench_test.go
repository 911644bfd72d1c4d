package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// restrictedInstance is 3 jobs of classes 0,0,1 on 2 machines; job 2 may
// only run on machine 1.
func restrictedInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewRestricted([]float64{3, 4, 5}, []int{0, 0, 1}, []float64{2, 1}, 2, [][]int{{0, 1}, {0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckerAcceptsValidSchedule(t *testing.T) {
	in := restrictedInstance(t)
	// Machine 0: jobs 0,1 of class 0 → 2+3+4 = 9; machine 1: job 2 → 1+5 = 6.
	if err := checkSchedule(in, []int{0, 0, 1}, 9, 6); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestCheckerRejects(t *testing.T) {
	in := restrictedInstance(t)
	cases := []struct {
		name     string
		assign   []int
		ms, low  float64
		contains string
	}{
		{"dropped job", []int{0, 0}, 9, 6, "assigns 2 jobs"},
		{"unassigned job", []int{0, -1, 1}, 5, 3, "machine -1"},
		{"machine out of range", []int{0, 2, 1}, 9, 6, "machine 2"},
		{"ineligible machine", []int{0, 0, 0}, 15, 6, "not eligible"},
		{"misreported makespan", []int{0, 0, 1}, 8, 6, "recomputed 9"},
		{"lower bound above makespan", []int{0, 0, 1}, 9, 10, "exceeds makespan"},
		{"no lower bound", []int{0, 0, 1}, 9, 0, "not positive"},
	}
	for _, c := range cases {
		err := checkSchedule(in, c.assign, c.ms, c.low)
		if err == nil || !strings.Contains(err.Error(), c.contains) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.contains)
		}
	}
}

func TestCheckerRejectsInfiniteProcessingTime(t *testing.T) {
	in, err := core.NewUnrelated([][]float64{{1, math.Inf(1)}, {2, 3}}, []int{0, 0}, [][]float64{{1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(in, []int{0, 0}, math.Inf(1), 1); err == nil {
		t.Fatal("schedule using a p=∞ pair accepted")
	}
}

func TestCheckerCountsOneSetupPerClassAndMachine(t *testing.T) {
	in := restrictedInstance(t)
	// Both class-0 jobs on machine 1 with job 2: 2 (class 0 setup) + 3 + 4
	// + 1 (class 1 setup) + 5 = 15, not 17.
	if err := checkSchedule(in, []int{1, 1, 1}, 15, 6); err != nil {
		t.Fatal(err)
	}
}

// generatedInputs serializes every input a run with the given seed would
// generate first: the online segments in pass order and the first service
// requests.
func generatedInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range onlineOrder(seed) {
		in, deltas := onlineSegment(s)
		if err := core.WriteDeltaStream(&buf, in, deltas); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := hotSet(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r, err := serviceRequest(seed, i, hot)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(r.body)
	}
	return buf.Bytes()
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	a, b := generatedInputs(t, 7), generatedInputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	if bytes.Equal(a, generatedInputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generate the same inputs")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest is the part of BENCHMARK.json the metric lists must match.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), perLayer...), workloadLayers...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
}

func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

func TestEmitPrintsEveryMetric(t *testing.T) {
	rep := newReport()
	rep.attempted, rep.failed = 3, 1
	for i, d := range endToEnd {
		rep.metrics[d.Name] = float64(i + 1)
	}
	var out bytes.Buffer
	if err := emit(&out, rep, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("printed %d metrics, want %d", len(metrics), len(endToEnd))
	}
}

func TestEmitRefusesUnmeasuredMetric(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	for _, d := range perLayer[1:] {
		rep.metrics[d.Name] = 1
	}
	// An empty sample leaves its metric out rather than reporting 0.
	rep.putMedian(perLayer[0].Name, nil)
	var out bytes.Buffer
	err := emit(&out, rep, perLayer)
	if err == nil || !strings.Contains(err.Error(), perLayer[0].Name) {
		t.Fatalf("emit with %s unmeasured: err = %v, output %q", perLayer[0].Name, err, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("emit printed a result for a run with an unmeasured metric: %q", out.String())
	}
}

func TestInjectedFailingRequestShowsInOkFrac(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and solves for a second")
	}
	var log bytes.Buffer
	rep, err := runServiceWith(config{Workload: "service-mix", Seed: 1, Seconds: 1, Log: &log}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.metrics["ok_frac"] >= 1 {
		t.Fatalf("every third request was malformed, yet failed=%d ok_frac=%v", rep.failed, rep.metrics["ok_frac"])
	}
	if rep.checkFails != 0 {
		t.Fatalf("checker rejected %d well-formed responses: %s", rep.checkFails, log.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median of four = %v, want 2.5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestPredictionsNameDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Predictions []struct {
			Layer    string `json:"layer"`
			EndToEnd string `json:"end_to_end"`
			Workload string `json:"workload"`
			Change   string `json:"change"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	layer, e2e := map[string]bool{}, map[string]bool{}
	for _, d := range append(append([]metricDef(nil), perLayer...), workloadLayers...) {
		layer[d.Name] = true
	}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, pr := range p.Predictions {
		if !layer[pr.Layer] || !e2e[pr.EndToEnd] || workloads[pr.Workload] == nil {
			t.Errorf("prediction %+v names an unknown metric or workload", pr)
		}
		if pr.Change != "moves" && pr.Change != "none" {
			t.Errorf("prediction %+v: change must be moves or none", pr)
		}
	}
}
