package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/rounding"
)

// seedStream is the rng seed the rounding solver derives from a solve's
// WithSeed value (0 selects the solver's fixed default stream).
func seedStream(seed int64) int64 {
	if seed == 0 {
		return 0x5DEECE66DA9C6B2F
	}
	return seed
}

// coldReplay is one cold rounding solve decomposed into its layers.
type coldReplay struct {
	makespan, lower         float64
	schedule                *core.Schedule
	rel                     *rounding.Relaxation
	accepted                float64
	greedy, build, total    time.Duration
	lpTime                  time.Duration
	buildPivots, pivots     int
	feasMs, infeasMs        []float64
	feasPivots, infeasPivot []float64
	roundMs                 []float64
	guesses, accepts        int
}

// replayCold re-runs a cold rounding solve through the layers' public
// functions in the order the rounding solver calls them — baseline.Greedy
// for the envelope, rounding.NewRelaxation and the envelope solve, then
// dual.Run with a decider wrapping Relaxation.ReSolve and rounding.Round —
// timing each call. With the solve's seed and a fresh bound bus (what a
// cache-missing Engine.Solve gives the solver) it must reproduce the
// engine's lower bound and makespan exactly. It also returns what the
// engine retains for a later Resolve: the relaxation and the search's
// accepted bracket edge.
func replayCold(ctx context.Context, in *core.Instance, seed int64, tr *tracer, op int64) (coldReplay, error) {
	var r coldReplay
	root, endRoot := tr.begin("replay.rounding", op, 0)

	_, end := tr.begin("baseline.Greedy", op, root)
	greedy, err := baseline.Greedy(in)
	r.greedy = end()
	if err != nil {
		return r, err
	}
	ub := greedy.Makespan(in)
	lb := exact.VolumeLowerBound(in)
	bus := engine.NewIncumbent()
	bus.PublishUpper(ub)
	bus.PublishLower(lb)
	rng := rand.New(rand.NewSource(seedStream(seed)))

	_, end = tr.begin("rounding.build", op, root)
	rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub})
	if err != nil {
		end()
		return r, err
	}
	f, err := rel.ReSolve(ub)
	r.build = end()
	if err != nil {
		return r, err
	}
	r.buildPivots = rel.Iterations()
	if f != nil {
		_, end = tr.begin("rounding.Round", op, root)
		s, _ := rounding.Round(ctx, in, f, 3, rng)
		r.roundMs = append(r.roundMs, ms(end()))
		bus.PublishUpper(s.Makespan(in))
	}

	var solveErr error
	var search int64 // the dual.Run span, parent of the decider's calls
	decide := func(g dual.Guess) (*core.Schedule, bool) {
		r.guesses++
		p0 := rel.Iterations()
		_, end := tr.begin("rounding.Relaxation.ReSolve", op, search)
		f, err := rel.ReSolve(g.T)
		d := end()
		piv := float64(rel.Iterations() - p0)
		r.lpTime += d
		if err != nil {
			solveErr = err
			return nil, true
		}
		if f == nil {
			r.infeasMs = append(r.infeasMs, ms(d))
			r.infeasPivot = append(r.infeasPivot, piv)
			return nil, false
		}
		r.accepts++
		r.feasMs = append(r.feasMs, ms(d))
		r.feasPivots = append(r.feasPivots, piv)
		_, end = tr.begin("rounding.Round", op, search)
		s, _ := rounding.Round(g.Ctx, in, f, 3, rng)
		r.roundMs = append(r.roundMs, ms(end()))
		return s, true
	}
	search, end = tr.begin("dual.Run", op, root)
	out := dual.Run(ctx, dual.Config{
		Instance: in, Lower: lb, Upper: ub, Precision: 0.05,
		Fallback: greedy, Bus: bus, Strategy: dual.Speculate(1),
		Deciders: []dual.GuessDecider{decide},
	})
	end()
	if solveErr != nil {
		return r, solveErr
	}
	r.total = endRoot()
	r.lpTime += r.build
	r.pivots = rel.Iterations()
	r.makespan, r.schedule = out.Makespan, out.Schedule
	r.rel, r.accepted = rel, out.Accepted
	// The engine's closing step: the lower bound absorbs every bound
	// certified on the bus and never exceeds the makespan.
	r.lower = lb
	if out.LowerBound > r.lower {
		r.lower = out.LowerBound
	}
	if l := bus.Lower(); l > r.lower {
		r.lower = l
	}
	if r.lower > r.makespan {
		r.lower = r.makespan
	}
	return r, nil
}

// coldAgg pools the replays that agreed with their solves.
type coldAgg struct {
	n                                 int
	greedy, build, roundMs            []float64
	feasMs, infeasMs, feasPiv, infPiv []float64
	buildPiv, guesses                 []float64
	lpTime, total                     time.Duration
	pivots, accepts, guessN           int
}

func (a *coldAgg) add(r coldReplay) {
	a.n++
	a.greedy = append(a.greedy, ms(r.greedy))
	a.build = append(a.build, ms(r.build))
	a.roundMs = append(a.roundMs, r.roundMs...)
	a.feasMs = append(a.feasMs, r.feasMs...)
	a.infeasMs = append(a.infeasMs, r.infeasMs...)
	a.feasPiv = append(a.feasPiv, r.feasPivots...)
	a.infPiv = append(a.infPiv, r.infeasPivot...)
	a.buildPiv = append(a.buildPiv, float64(r.buildPivots))
	a.guesses = append(a.guesses, float64(r.guesses))
	a.lpTime += r.lpTime
	a.total += r.total
	a.pivots += r.pivots
	a.accepts += r.accepts
	a.guessN += r.guesses
}

func (a *coldAgg) fill(rep *report) {
	if a.n == 0 {
		return
	}
	rep.putMedian("baseline.greedy_ms.p50", a.greedy)
	rep.putMedian("rounding.build_ms.p50", a.build)
	rep.putMedian("rounding.resolve_ms.feasible.p50", a.feasMs)
	rep.putMedian("rounding.resolve_ms.infeasible.p50", a.infeasMs)
	rep.putMedian("rounding.round_ms.p50", a.roundMs)
	rep.metrics["rounding.lp_share"] = a.lpTime.Seconds() / a.total.Seconds()
	rep.putMean("dual.guesses_per_solve", a.guesses)
	rep.putFrac("dual.accept_frac", int64(a.accepts), int64(a.guessN))
	rep.putMedian("lp.pivots.build", a.buildPiv)
	rep.putMean("lp.pivots_per_guess.feasible", a.feasPiv)
	rep.putMean("lp.pivots_per_guess.infeasible", a.infPiv)
	if a.pivots > 0 {
		rep.metrics["lp.us_per_pivot"] = float64(a.lpTime.Microseconds()) / float64(a.pivots)
	}
}
