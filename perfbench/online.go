package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	sched "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/rounding"
)

// online-stream follows delta streams with Engine.Resolve, one event at a
// time. Each segment opens a fresh engine on an unrelated M=10/N=100/K=8
// instance (the set-up) and resolves onlineEvents deltas of
// gen.DeltaStream's default 4:2:2:1:1 mix.
//
// The segments are a fixed corpus, and the run seed picks the solver seed
// and the order of each pass: the cost of a segment depends on its
// instance — a 100-event stream took 6 s on one instance and 22 s on
// another — so segments drawn from the run seed would make the spread
// between runs the spread between instances. A run is whole passes over
// the corpus, which also keeps the instances a run sees independent of how
// fast the program is.
var onlineParams = gen.Params{N: 100, M: 10, K: 8}

const (
	onlineSegments = 8
	onlineEvents   = 25
	// onlineSetupReps is how often an untraced run opens each segment to
	// time the set-up; the last Open's handle is the one resolved. One
	// Open per segment gives setup_s eight samples a pass, of eight
	// different instances.
	onlineSetupReps = 3
)

// onlineSegment generates corpus segment s: its instance and deltas.
func onlineSegment(s int) (*core.Instance, []core.Delta) {
	rng := rand.New(rand.NewSource(int64(s + 1)))
	in := gen.Unrelated(rng, onlineParams)
	return in, gen.DeltaStream(rng, in, gen.StreamParams{Events: onlineEvents})
}

// onlineOrder is the segment order of a run's passes.
func onlineOrder(seed int64) []int { return rand.New(rand.NewSource(seed)).Perm(onlineSegments) }

// onlineSeg is one traced segment, kept for its replay.
type onlineSeg struct {
	in     *core.Instance
	deltas []core.Delta
	open   sched.Result
	res    []sched.Result // per applied delta, in order
}

func runOnline(cfg config) (*report, error) {
	rep := newReport()
	plain := func() (*sched.Engine, error) { return sched.New() }
	if !cfg.Trace {
		log, setups, alloc, _, err := onlinePhase(cfg, cfg.window(), onlineSetupReps, plain, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return rep, log.fill(rep, log.busy, setups, alloc)
	}

	base, _, _, _, err := onlinePhase(cfg, cfg.window()/2, 1, plain, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	reg, calls, err := timedRegistry(tr)
	if err != nil {
		return nil, err
	}
	var engs []*sched.Engine
	wrapped := func() (*sched.Engine, error) {
		e, err := sched.New(sched.WithRegistry(reg))
		engs = append(engs, e)
		return e, err
	}
	p0 := lp.PresolveTotals()
	var overhead []float64
	log, _, _, segs, err := onlinePhase(cfg, cfg.window()/2, 1, wrapped, tr, calls, &overhead)
	if err != nil {
		return nil, err
	}
	presolveMetrics(rep, p0, lp.PresolveTotals())
	rep.count(base, log)
	traceRates(rep, base, log)
	all := calls.snapshot()
	engineMetrics(rep, engs, len(all))
	solverMetrics(rep, all)
	rep.putMedian("sched.overhead_ms.p50", overhead)
	rep.metrics["latency.samples"] = float64(len(log.lat))

	var applyMs, patchMs, fpMs []float64
	var agg coldAgg
	agreed, replayed := 0, 0
	for si, sg := range segs {
		r, err := replayOnline(context.Background(), sg, cfg.Seed, tr, int64(si+1))
		if err != nil {
			return nil, fmt.Errorf("online replay of segment %d: %w", si, err)
		}
		replayed += r.events
		if r.cold != nil {
			agg.add(*r.cold)
		}
		if r.mismatchAt < 0 {
			agreed++
		} else {
			fmt.Fprintf(cfg.Log, "perfbench: online replay of segment %d disagrees at event %d\n", si, r.mismatchAt)
		}
		// Only the events replayed before any disagreement count.
		applyMs = append(applyMs, r.applyMs...)
		patchMs = append(patchMs, r.patchMs...)
		fpMs = append(fpMs, r.fpMs...)
	}
	rep.putFrac("trace.replay_agree_frac", int64(agreed), int64(len(segs)))
	rep.detail["replayed_events"] = replayed
	rep.putMedian("core.delta_apply_ms.p50", applyMs)
	rep.putMedian("core.fingerprint_ms.p50", fpMs)
	rep.putMedian("rounding.apply_delta_ms.p50", patchMs)
	agg.fill(rep)
	rep.detail["spans"] = tr.spanSummary()
	return rep, nil
}

// onlinePhase runs whole passes over the segment corpus until their opens
// and resolves have taken window. It returns the resolves' log, the set-up
// times (engine construction plus Open, setupReps of them per segment),
// the MB the resolves allocated and, with a call log, the segments for
// replay; overhead, when non-nil, receives each resolve's wall time outside
// the solver in ms.
func onlinePhase(cfg config, window time.Duration, setupReps int, newEngine func() (*sched.Engine, error), tr *tracer, calls *callLog, overhead *[]float64) (*opLog, []float64, float64, []onlineSeg, error) {
	ctx := context.Background()
	log := &opLog{log: cfg.Log}
	var setups []float64
	var segs []onlineSeg
	var spent time.Duration
	var am allocMeter
	order := onlineOrder(cfg.Seed)
	for k := 0; k%onlineSegments != 0 || spent < window || k == 0; k++ {
		s := order[k%onlineSegments]
		in, deltas := onlineSegment(s)
		var eng *sched.Engine
		var h *sched.Handle
		for r := 0; r < setupReps; r++ {
			_, endSetup := untraced.begin("sched.Engine.Open", 0, 0)
			var err error
			if eng, err = newEngine(); err != nil {
				return nil, nil, 0, nil, err
			}
			h, err = eng.Open(ctx, in, sched.WithSeed(cfg.Seed))
			setup := endSetup()
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("open segment %d: %w", s, err)
			}
			if err := checkResult(in, h.Result()); err != nil {
				return nil, nil, 0, nil, fmt.Errorf("open segment %d: %w", s, err)
			}
			setups = append(setups, setup.Seconds())
			spent += setup
		}
		seg := onlineSeg{in: in, deltas: deltas, open: h.Result()}
		busy0 := log.busy
		cur := in
		for i, d := range deltas {
			want, err := d.Apply(cur)
			if err != nil {
				return nil, nil, 0, nil, fmt.Errorf("segment %d event %d: generated delta does not apply: %w", s, i, err)
			}
			n0 := 0
			if calls != nil {
				n0 = calls.len()
			}
			am.start()
			_, end := tr.begin("sched.Engine.Resolve", int64(s*onlineEvents+i+1), 0)
			next, err := eng.Resolve(ctx, h, d, sched.WithSeed(cfg.Seed))
			dur := end()
			am.stop()
			if err != nil {
				log.fail(dur, err, false)
				break // the stream cannot continue without the handle
			}
			res := next.Result()
			if cerr := checkResult(want, res); cerr != nil {
				log.fail(dur, fmt.Errorf("segment %d event %d (%v): %w", s, i, d.Kind, cerr), true)
				break
			}
			log.ok(dur, res.Makespan/res.LowerBound)
			if calls != nil {
				var inSolver time.Duration
				for _, c := range calls.snapshot()[n0:] {
					inSolver += c.Dur
				}
				*overhead = append(*overhead, ms(dur-inSolver))
				seg.res = append(seg.res, res)
			}
			h, cur = next, want
		}
		spent += log.busy - busy0
		if calls != nil {
			segs = append(segs, seg)
		}
	}
	return log, setups, am.mb(), segs, nil
}

// onlineReplay is what replaying one segment measured.
type onlineReplay struct {
	events                 int
	mismatchAt             int
	cold                   *coldReplay // the Open, when it agreed
	applyMs, patchMs, fpMs []float64
}

// retained mirrors the engine's per-fingerprint solve state.
type retained struct {
	rel             *rounding.Relaxation
	accepted, upper float64
}

// replayOnline re-runs a segment's Open (replayCold) and resolves through
// the layers' public functions, mirroring Engine.Resolve step by step:
// Delta.Apply, Delta.PatchSchedule and the bound transfers,
// Relaxation.ApplyDelta on the retained relaxation, the bound-cache seeding
// of the solve, and rounding.ScheduleDetailed with the warm start. Each replayed event must
// reproduce the engine's lower bound and makespan exactly; timings are
// kept only for the events before the first disagreement.
func replayOnline(ctx context.Context, sg onlineSeg, seed int64, tr *tracer, op int64) (onlineReplay, error) {
	out := onlineReplay{mismatchAt: -1}
	cache := engine.NewBoundCache(engine.DefaultBoundCacheSize)
	solve := func(in *core.Instance, fp string, warm *core.WarmStart, seedB *engine.CachedBounds) (sched.Result, retained, error) {
		cached, hit := cache.Lookup(fp)
		if !hit {
			cached, hit = cache.LookupSimilar(in, fp)
		}
		if seedB != nil {
			if !hit {
				cached, hit = engine.CachedBounds{Upper: math.Inf(1)}, true
			}
			if seedB.Schedule != nil && seedB.Upper < cached.Upper {
				cached.Upper, cached.Schedule, cached.Algorithm = seedB.Upper, seedB.Schedule, seedB.Algorithm
			}
			if seedB.Lower > cached.Lower {
				cached.Lower = seedB.Lower
			}
		}
		bus := engine.NewIncumbent()
		if hit {
			bus.PublishUpper(cached.Upper)
			bus.PublishLower(cached.Lower)
		}
		_, end := tr.begin("rounding.ScheduleDetailed", op, 0)
		res, det, err := rounding.ScheduleDetailed(ctx, in, rounding.Options{
			Rng: rand.New(rand.NewSource(seedStream(seed))), Bounds: bus, Warm: warm,
		})
		end()
		if err != nil {
			return res, retained{}, err
		}
		if hit && cached.Schedule != nil && cached.Upper < res.Makespan-core.Eps {
			res.Schedule, res.Makespan, res.Algorithm = cached.Schedule, cached.Upper, cached.Algorithm
		}
		if l := bus.Lower(); l > res.LowerBound {
			res.LowerBound = l
		}
		if hit && cached.Lower > res.LowerBound {
			res.LowerBound = cached.Lower
		}
		if res.LowerBound > res.Makespan {
			res.LowerBound = res.Makespan
		}
		cache.Update(fp, engine.CachedBounds{
			Upper: res.Makespan, Lower: res.LowerBound, Schedule: res.Schedule,
			Algorithm: res.Algorithm, SimKey: in.SimilarityKey(),
		})
		return res, retained{rel: det.Relaxation, accepted: det.Accepted, upper: res.Makespan}, nil
	}

	cold, err := replayCold(ctx, sg.in, seed, tr, op)
	if err != nil {
		return out, err
	}
	if cold.lower != sg.open.LowerBound || cold.makespan != sg.open.Makespan {
		out.mismatchAt = 0
		return out, nil
	}
	out.cold = &cold
	prevIn := sg.in
	prev := sched.Result{Algorithm: sg.open.Algorithm, Schedule: cold.schedule, Makespan: cold.makespan, LowerBound: cold.lower}
	cache.Update(prevIn.Fingerprint(), engine.CachedBounds{
		Upper: prev.Makespan, Lower: prev.LowerBound, Schedule: prev.Schedule,
		Algorithm: prev.Algorithm, SimKey: prevIn.SimilarityKey(),
	})
	st := retained{rel: cold.rel, accepted: cold.accepted, upper: prev.Makespan}
	for i, want := range sg.res {
		d := sg.deltas[i]
		_, end := tr.begin("core.Delta.Apply", op, 0)
		newIn, err := d.Apply(prevIn)
		applyMs := ms(end())
		if err != nil {
			return out, err
		}
		witness := d.PatchSchedule(prev.Schedule, prevIn, newIn)
		witnessMs := math.Inf(1)
		if witness != nil {
			if witnessMs = witness.Makespan(newIn); !core.IsFinite(witnessMs) {
				witness = nil
			}
		}
		lower := 0.0
		if d.RaisesOn(prevIn) && prev.LowerBound > 0 {
			lower = prev.LowerBound
		}
		// Every solve of the chain retained its state, as the engine's
		// rounding solver does, so the accepted edge always lifts.
		searchUpper := witnessMs
		acc := st.accepted
		if acc <= 0 {
			acc = st.upper
		}
		if c := d.AcceptedCap(acc, prevIn, newIn); c < searchUpper {
			searchUpper = c
		}
		var warm *core.WarmStart
		var seedB *engine.CachedBounds
		patched := -1.0
		if witness != nil {
			warm = &core.WarmStart{Lower: lower, Upper: searchUpper, Fallback: witness}
			if st.rel != nil && core.IsFinite(searchUpper) {
				_, end := tr.begin("rounding.Relaxation.ApplyDelta", op, 0)
				perr := st.rel.ApplyDelta(d, newIn, searchUpper)
				patched = ms(end())
				if perr == nil {
					warm.State = st.rel
				}
			}
			seedB = &engine.CachedBounds{Upper: witnessMs, Lower: lower, Schedule: witness, Algorithm: prev.Algorithm + "+delta"}
		} else if lower > 0 {
			seedB = &engine.CachedBounds{Upper: math.Inf(1), Lower: lower}
		}
		_, end = tr.begin("core.Instance.Fingerprint", op, 0)
		fp := newIn.Fingerprint()
		fpMs := ms(end())
		res, next, err := solve(newIn, fp, warm, seedB)
		if err != nil {
			return out, err
		}
		if res.LowerBound != want.LowerBound || res.Makespan != want.Makespan {
			out.mismatchAt = i + 1
			return out, nil
		}
		out.events++
		out.applyMs = append(out.applyMs, applyMs)
		out.fpMs = append(out.fpMs, fpMs)
		if patched >= 0 {
			out.patchMs = append(out.patchMs, patched)
		}
		prevIn, prev, st = newIn, res, next
	}
	return out, nil
}
