package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	sched "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/improve"
	"repro/internal/lp"
	"repro/internal/serve"
)

// service-mix runs an in-process serve.Server on a loopback listener with
// the schedserve defaults (queue 64, bound cache 1024, coalescing linger
// 250ms) except for serviceRetain, and a closed loop of one client
// connection sending POST /v1/solve. Requests are small to medium (N
// 40–100) and draw from five kinds that dispatch to four solvers.
//
// One connection, not two: on a 2-vCPU machine a second client competes
// with the server and the garbage collector for the cores, and over ten
// runs of the same code throughput spread by 0.4 of its median. With
// one client, coalescing is exercised through the linger window: a
// repeated request that arrives within it rides the completed flight.
//
// The shares are chosen so that the reported percentiles fall inside one
// kind of request rather than on the edge between two, where a run-to-run
// wobble in the shares would move them: hotShare of the requests repeat one
// of the hot instances (one per kind, of one fixed middle size), which
// exercises coalescing and the bound cache and puts the median among the
// fresh requests; the unrelated kind, whose LP-backed rounding solves cost
// 10–100x the others, is drawn for unrelatedShare of the fresh requests,
// which keeps the 90th percentile below the rounding solves. lsShare of the
// fresh requests, and the uniform hot instance, ask for local search.
const (
	hotShare       = 0.4
	unrelatedShare = 0.1
	lsShare        = 0.25
	serviceTimeout = 30 * time.Second
	serviceLinger  = 250 * time.Millisecond
	// serviceRetain is how long the server keeps a completed flight
	// fetchable by ID, which the benchmark never does. The 60s default
	// outlasts the measured window, so every flight of a run would stay
	// resident and rss_peak_mb would grow with the requests served: a
	// faster program would read as a memory regression.
	serviceRetain = time.Second
	// serviceSetupReps is how often an untraced run starts a second server
	// to report the median start time, after serviceSetupWarm untimed
	// starts. The timed starts are spread evenly over the window, pausing
	// the closed loop: a start takes under a millisecond, and on a shared
	// 2-vCPU host the speed of such short work moved by 1.7x from one
	// second to the next, so 101 starts timed back to back at the beginning
	// of a run sampled one moment, and their median spread by 0.26–0.40 of
	// itself over ten runs.
	serviceSetupReps = 101
	serviceSetupWarm = 10
	// maxColdReplays bounds how many rounding solves a traced run replays.
	maxColdReplays = 100
)

// hotParams is the size of every hot instance.
var hotParams = gen.Params{N: 70, M: 5, K: 4}

// serviceKinds lists the request kinds; the last one is the unrelated kind.
var serviceKinds = []struct {
	name string
	gen  func(*rand.Rand, gen.Params) *core.Instance
}{
	{"identical", gen.Identical},
	{"uniform", gen.Uniform},
	{"restricted-class-uniform", gen.RestrictedClassUniform},
	{"unrelated-class-uniform", gen.UnrelatedClassUniform},
	{"unrelated", gen.Unrelated},
}

// request is one generated POST /v1/solve: its body, and the instance it
// was generated from, which the checker judges the response against.
type request struct {
	kind int
	hot  bool
	ls   bool
	seed int64
	body []byte
	in   *core.Instance
}

// newRequest generates a request of the given kind and size; the rng also
// picks its solver seed.
func newRequest(rng *rand.Rand, kind int, p gen.Params, ls bool) (*request, error) {
	in := serviceKinds[kind].gen(rng, p)
	var inst bytes.Buffer
	if err := in.WriteJSON(&inst); err != nil {
		return nil, err
	}
	seed := 1 + rng.Int63n(1<<30)
	body, err := json.Marshal(serve.SolveRequest{
		Instance: json.RawMessage(inst.Bytes()),
		Options:  serve.SolveOptions{Seed: seed, LocalSearch: ls, Timeout: serve.Duration(serviceTimeout)},
	})
	if err != nil {
		return nil, err
	}
	return &request{kind: kind, ls: ls, seed: seed, body: body, in: in}, nil
}

// hotSet generates the run's hot instances, one per kind.
func hotSet(seed int64) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
	hot := make([]*request, len(serviceKinds))
	for k := range hot {
		r, err := newRequest(rng, k, hotParams, serviceKinds[k].name == "uniform")
		if err != nil {
			return nil, err
		}
		r.hot = true
		hot[k] = r
	}
	return hot, nil
}

// serviceRequest generates request i of a run: a hot instance with
// probability hotShare, else a fresh one of random size, unrelated with
// probability unrelatedShare and otherwise of a uniformly drawn other kind.
func serviceRequest(seed int64, i int, hot []*request) (*request, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1))
	if rng.Float64() < hotShare {
		return hot[rng.Intn(len(hot))], nil
	}
	kind := len(serviceKinds) - 1
	if rng.Float64() >= unrelatedShare {
		kind = rng.Intn(len(serviceKinds) - 1)
	}
	p := gen.Params{N: 40 + rng.Intn(61), M: 3 + rng.Intn(6), K: 2 + rng.Intn(5)}
	return newRequest(rng, kind, p, rng.Float64() < lsShare)
}

// server is one running in-process service.
type server struct {
	srv    *serve.Server
	eng    *sched.Engine
	hs     *http.Server
	url    string
	served chan error
}

func startServer(opts ...sched.EngineOption) (*server, error) {
	eng, err := sched.New(append([]sched.EngineOption{sched.WithBoundCache(1024)}, opts...)...)
	if err != nil {
		return nil, err
	}
	srv := serve.New(eng, serve.Config{Queue: 64, Linger: serviceLinger, Retain: serviceRetain})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, eng: eng, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	return s, nil
}

// stop closes the listener and connections, waits for admitted solves to
// finish, and waits for the serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*serviceTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is what a run keeps of one request's outcome. The response's
// schedule is dropped once checked, so that what the benchmark holds does
// not grow the process's peak memory with the requests served.
type reply struct {
	i        int // the request's index in the run's sequence
	kind     int
	hot, ls  bool
	seed     int64
	latency  time.Duration
	status   int
	coalesce string
	resp     serve.SolveResponse
	done     time.Duration // completion time since the phase began
	// in is the request's instance, kept only by a traced phase.
	in *core.Instance
}

// key is the request's coalescing identity as the benchmark sees it.
func (rp *reply) key() string { return fmt.Sprintf("%s|%t", rp.in.Fingerprint(), rp.ls) }

// servicePhase drives the server with the closed loop for window, checks
// every response and logs its outcome, and returns every reply, the
// phase's wall time and the MB the process allocated during it. With keep
// the replies keep their instances for the traced phase's layer metrics.
// With setups non-nil it also times serviceSetupReps server starts spread
// evenly over the window, outside the wall time and the allocations.
// badEvery > 0 replaces every badEvery-th request with a malformed one
// (used by the tests to inject failures).
func servicePhase(cfg config, s *server, hot []*request, window time.Duration, log *opLog, keep bool, badEvery int, setups *[]float64) ([]reply, time.Duration, float64, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: serviceTimeout + 10*time.Second}
	var (
		replies []reply
		am      allocMeter
		paused  time.Duration
	)
	am.start()
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) - paused }
	for i := 0; elapsed() < window; i++ {
		if setups != nil && len(*setups) < serviceSetupReps && elapsed() >= window*time.Duration(len(*setups))/serviceSetupReps {
			am.stop()
			p0 := time.Now()
			d, err := timeStart()
			if err != nil {
				return nil, 0, 0, err
			}
			*setups = append(*setups, d.Seconds())
			paused += time.Since(p0)
			am.start()
		}
		req, err := serviceRequest(cfg.Seed, i, hot)
		if err != nil {
			return nil, 0, 0, err
		}
		body := req.body
		if badEvery > 0 && i%badEvery == badEvery-1 {
			body = []byte(`{"instance": {"kind": "unrelated", "p": "not a matrix"}}`)
		}
		rp := reply{i: i, kind: req.kind, hot: req.hot, ls: req.ls, seed: req.seed}
		_, end := untraced.begin("POST /v1/solve", 0, 0)
		resp, err := client.Post(s.url+"/v1/solve", "application/json", bytes.NewReader(body))
		var raw []byte
		if err == nil {
			rp.status = resp.StatusCode
			rp.coalesce = resp.Header.Get("X-Coalesce")
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		rp.latency = end()
		rp.done = elapsed()
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("request answered with status %d", rp.status)
		}
		if err == nil {
			err = json.Unmarshal(raw, &rp.resp)
		}
		switch {
		case err != nil:
			rp.status = -1
			log.fail(rp.latency, err, false)
		default:
			r := rp.resp
			if cerr := checkSchedule(req.in, r.Machine, r.Makespan, r.LowerBound); cerr != nil {
				rp.status = -1
				log.fail(rp.latency, fmt.Errorf("%s request: %w", serviceKinds[req.kind].name, cerr), true)
			} else {
				log.ok(rp.latency, r.Makespan/r.LowerBound)
			}
		}
		rp.resp.Machine = nil
		if keep {
			rp.in = req.in
		}
		replies = append(replies, rp)
	}
	wall := elapsed()
	am.stop()
	return replies, wall, am.mb(), nil
}

// timeStart times one start of a second server, which it then stops.
func timeStart() (time.Duration, error) {
	_, end := untraced.begin("start server", 0, 0)
	s, err := startServer()
	d := end()
	if err != nil {
		return 0, err
	}
	return d, s.stop()
}

// shares reports what fraction of the traffic could use each reuse
// mechanism — repeated inputs, coalesced followers and bound-cache hits —
// plus the request count per kind and the replies completed in each second
// of the phase. It returns the repeated-input and coalesced shares.
func shares(rep *report, replies []reply, st serve.Stats) (dupFrac, coalescedFrac float64) {
	dup, byKind := 0, map[string]int{}
	for _, rp := range replies {
		if rp.hot {
			dup++
		}
		byKind[serviceKinds[rp.kind].name]++
	}
	dupFrac = frac(int64(dup), int64(len(replies)))
	coalescedFrac = frac(st.Coalesce.Followers, st.Coalesce.Leaders+st.Coalesce.Followers)
	rep.detail["dup_frac"] = dupFrac
	rep.detail["coalesce_follower_frac"] = coalescedFrac
	rep.detail["cache_hit_frac"] = frac(st.Cache.Hits, st.Cache.Hits+st.Cache.Misses)
	rep.detail["requests_by_kind"] = byKind
	rep.detail["shed"] = st.Requests.Shed429 + st.Requests.Shed503
	var perSec []int
	for _, rp := range replies {
		sec := int(rp.done / time.Second)
		for len(perSec) <= sec {
			perSec = append(perSec, 0)
		}
		perSec[sec]++
	}
	rep.detail["replies_per_second"] = perSec
	return dupFrac, coalescedFrac
}

func runService(cfg config) (*report, error) { return runServiceWith(cfg, 0) }

func runServiceWith(cfg config, badEvery int) (*report, error) {
	rep := newReport()
	hot, err := hotSet(cfg.Seed)
	if err != nil {
		return nil, err
	}
	for r := 0; r < serviceSetupWarm; r++ {
		if _, err := timeStart(); err != nil {
			return nil, err
		}
	}
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	window := cfg.window()
	if cfg.Trace {
		window /= 2
	}
	base := &opLog{log: cfg.Log}
	var setups []float64
	timed := &setups
	if cfg.Trace {
		timed = nil
	}
	replies, wall, alloc, err := servicePhase(cfg, s, hot, window, base, false, badEvery, timed)
	st := s.srv.Stats()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		shares(rep, replies, st)
		return rep, base.fill(rep, wall, setups, alloc)
	}

	tr := &tracer{}
	reg, calls, err := timedRegistry(tr)
	if err != nil {
		return nil, err
	}
	if s, err = startServer(sched.WithRegistry(reg)); err != nil {
		return nil, err
	}
	p0 := lp.PresolveTotals()
	traced := &opLog{log: cfg.Log}
	replies2, wall2, _, err := servicePhase(cfg, s, hot, window, traced, true, badEvery, nil)
	p1 := lp.PresolveTotals()
	st = s.srv.Stats()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	base.busy, traced.busy = wall, wall2
	rep.count(base, traced)
	traceRates(rep, base, traced)
	presolveMetrics(rep, p0, p1)
	dupFrac, coalescedFrac := shares(rep, replies2, st)
	all := calls.snapshot()
	solverMetrics(rep, all)
	busy := map[string]float64{}
	for _, c := range all {
		busy[c.Solver] += c.Dur.Seconds() / wall2.Seconds()
	}
	rep.detail["solver_busy_share"] = busy
	engineMetrics(rep, []*sched.Engine{s.eng}, len(all))
	rep.metrics["serve.coalesce_hit_frac"] = coalescedFrac
	rep.metrics["serve.dup_frac"] = dupFrac
	rep.metrics["serve.shed"] = float64(st.Requests.Shed429 + st.Requests.Shed503)
	rep.metrics["latency.samples"] = float64(len(traced.lat))
	serviceLayers(cfg, rep, replies2, all, tr)
	rep.detail["spans"] = tr.spanSummary()
	return rep, nil
}

// serviceLayers derives the per-layer metrics of the traced phase: the
// serve and sched overheads per leader flight, fingerprint cost, PTAS
// nodes, the local-search re-runs and the cold rounding replays, both with
// their agreement checks.
func serviceLayers(cfg config, rep *report, replies []reply, calls []solverCall, tr *tracer) {
	// A flight has exactly one leader reply and one solver call, and
	// flights of one key never overlap, so the k-th leader reply of a key
	// belongs to the k-th solver call on that key.
	byKey := map[string][]solverCall{}
	for _, c := range calls {
		k := fmt.Sprintf("%s|%t", c.In.Fingerprint(), c.LocalSearch)
		byKey[k] = append(byKey[k], c)
	}
	leaders := map[string][]reply{}
	for _, rp := range replies {
		if rp.status == http.StatusOK && rp.coalesce == "leader" {
			k := rp.key()
			leaders[k] = append(leaders[k], rp)
		}
	}
	var serveOver, schedOver, fps, impMs, applied []float64
	var nodes []float64
	replayed, agreed, reran := 0, 0, 0
	for k, rps := range leaders {
		cs := byKey[k]
		for i, rp := range rps {
			serveOver = append(serveOver, ms(rp.latency)-rp.resp.ElapsedMs)
			if i >= len(cs) {
				continue
			}
			c := cs[i]
			schedOver = append(schedOver, rp.resp.ElapsedMs-ms(c.Dur))
			if c.Pre == nil {
				continue
			}
			reran++
			_, end := tr.begin("improve.Improve", 0, 0)
			_, ir := improve.Improve(context.Background(), c.In, c.Pre, improve.DefaultOptions())
			d := end()
			want := ir.Before
			if ir.After < want {
				want = ir.After
			}
			if strings.Contains(rp.resp.Note, "returning the cached") {
				continue // the service answered from the bound cache, not this run
			}
			replayed++
			if want != rp.resp.Makespan {
				fmt.Fprintf(cfg.Log, "perfbench: local-search re-run gives makespan %v, the service returned %v\n", want, rp.resp.Makespan)
				continue
			}
			agreed++
			impMs = append(impMs, ms(d))
			applied = append(applied, float64(ir.Applied))
		}
	}
	for _, c := range calls {
		if c.Solver == "ptas" {
			nodes = append(nodes, float64(c.Nodes))
		}
	}
	// The fresh unrelated requests without local search were cold rounding
	// solves: replay up to maxColdReplays of them layer by layer.
	var agg coldAgg
	colds := 0
	for _, rp := range replies {
		if colds == maxColdReplays || rp.status != http.StatusOK || rp.coalesce != "leader" || rp.hot || rp.ls || serviceKinds[rp.kind].name != "unrelated" {
			continue
		}
		colds++
		r, err := replayCold(context.Background(), rp.in, rp.seed, tr, int64(rp.i+1))
		if err != nil {
			fmt.Fprintf(cfg.Log, "perfbench: replay of request %d: %v\n", rp.i, err)
			continue
		}
		if r.lower != rp.resp.LowerBound || r.makespan != rp.resp.Makespan {
			fmt.Fprintf(cfg.Log, "perfbench: cold replay of request %d gives makespan %v and lower bound %v, the service returned %v and %v\n",
				rp.i, r.makespan, r.lower, rp.resp.Makespan, rp.resp.LowerBound)
			continue
		}
		agg.add(r)
	}
	agg.fill(rep)
	replayed, agreed = replayed+colds, agreed+agg.n
	rep.detail["cold_replays"] = colds
	seen := map[int]bool{}
	for _, rp := range replies {
		id := rp.i
		if rp.hot {
			id = -1 - rp.kind
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		_, end := tr.begin("core.Instance.Fingerprint", int64(rp.i+1), 0)
		rp.in.Fingerprint()
		fps = append(fps, ms(end()))
	}
	rep.putFrac("trace.replay_agree_frac", int64(agreed), int64(replayed))
	rep.detail["local_search_reruns"] = reran
	rep.putMedian("serve.overhead_ms.p50", serveOver)
	rep.putMedian("sched.overhead_ms.p50", schedOver)
	rep.putMedian("core.fingerprint_ms.p50", fps)
	rep.putMean("ptas.nodes_per_solve", nodes)
	rep.putMedian("improve.ms.p50", impMs)
	rep.putMean("improve.applied", applied)
}
