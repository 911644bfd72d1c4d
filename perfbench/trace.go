package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	sched "repro"
	"repro/internal/core"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one operation share Op; Parent
// is the enclosing span (0 for an operation's root).
type span struct {
	ID, Parent, Op int64
	Name           string
	Dur            time.Duration
}

// tracer is the benchmark's only stopwatch for calls into the program:
// every latency and layer time it reports is the duration a begin/end
// pair returned. A non-nil tracer also keeps the spans in memory, and the
// traced run prints their per-layer totals (spanSummary); a nil tracer
// only times, so untraced runs share the traced code paths.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
}

// untraced times calls without recording them.
var untraced *tracer

// begin starts timing a call and returns the span's id and the function
// that ends it, records the span and returns its duration.
func (t *tracer) begin(name string, op, parent int64) (int64, func() time.Duration) {
	var id int64
	if t != nil {
		t.mu.Lock()
		t.nextID++
		id = t.nextID
		t.mu.Unlock()
	}
	start := time.Now()
	return id, func() time.Duration {
		d := time.Since(start)
		if t != nil {
			t.mu.Lock()
			t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Dur: d})
			t.mu.Unlock()
		}
		return d
	}
}

// spanTotals is what the spans of one name add up to. Self time is the
// spans' duration minus the part their child spans cover.
type spanTotals struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// spanSummary totals the recorded spans by name.
func (t *tracer) spanSummary() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	out := map[string]spanTotals{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Calls++
		st.TotalMs += ms(s.Dur)
		st.SelfMs += ms(s.Dur - children[s.ID])
		out[s.Name] = st
	}
	return out
}

// solverCall is one call into a registry solver, seen by the timing
// wrapper: the solver's own time, its node count, and — when the caller
// asked for local search — the schedule the solver returned before the
// engine's local-search pass ran on it.
type solverCall struct {
	Solver      string
	In          *core.Instance
	Dur         time.Duration
	Nodes       int64
	LocalSearch bool
	Pre         *core.Schedule
}

// callLog collects solverCalls from every wrapped solver of one engine.
type callLog struct {
	mu    sync.Mutex
	calls []solverCall
}

func (l *callLog) add(c solverCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// snapshot returns the calls recorded so far.
func (l *callLog) snapshot() []solverCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]solverCall(nil), l.calls...)
}

func (l *callLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

// timedRegistry is the default solver set with every solver wrapped in a
// timer through the public plug-in surface (sched.NewSolver), for an
// engine built WithRegistry. The wrapped solvers keep their names,
// capabilities and behaviour; options pass through untouched.
func timedRegistry(tr *tracer) (*sched.Registry, *callLog, error) {
	reg := sched.NewRegistry()
	log := &callLog{}
	for _, s := range sched.NewDefaultRegistry().Solvers() {
		s := s
		name := s.Name()
		wrapped := sched.NewSolver(name, s.Capabilities(), func(ctx context.Context, in *sched.Instance, opt sched.SolveOptions) (sched.Result, error) {
			_, end := tr.begin("engine.solver."+name, 0, 0)
			res, err := s.Solve(ctx, in, opt)
			d := end()
			c := solverCall{Solver: name, In: in, Dur: d, Nodes: res.Nodes, LocalSearch: opt.LocalSearch}
			if err == nil && opt.LocalSearch && res.Schedule != nil {
				c.Pre = res.Schedule.Clone()
			}
			log.add(c)
			return res, err
		})
		if err := reg.Register(wrapped); err != nil {
			return nil, nil, fmt.Errorf("wrap solver %s: %w", name, err)
		}
	}
	return reg, log, nil
}

// solverMetrics fills the per-solver time and call-count metrics from the
// wrapper's log.
func solverMetrics(rep *report, calls []solverCall) {
	by := map[string][]float64{}
	for _, c := range calls {
		by[c.Solver] = append(by[c.Solver], ms(c.Dur))
	}
	for _, s := range solverNames {
		if xs := by[s]; len(xs) > 0 {
			rep.metrics["engine.solver_ms."+s+".p50"] = median(xs)
			rep.metrics["engine.solver_calls."+s] = float64(len(xs))
		}
	}
	counts := map[string]int{}
	for s, xs := range by {
		counts[s] = len(xs)
	}
	rep.detail["solver_calls"] = counts
}

// engineMetrics fills the cache and governor metrics from the counters of
// the engines a traced phase built (each built for it, so counting from 0).
func engineMetrics(rep *report, engs []*sched.Engine, solves int) {
	var hits, lookups int64
	var wait time.Duration
	for _, e := range engs {
		c := e.CacheStats()
		hits, lookups = hits+c.Hits, lookups+c.Hits+c.Misses
		wait += e.GovernorStats().WaitTime
	}
	rep.putFrac("engine.cache_hit_frac", hits, lookups)
	if solves > 0 {
		rep.metrics["engine.gov_wait_ms"] = ms(wait) / float64(solves)
	}
}
