package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// checkTol is the relative slack between the reported makespan and the
// checker's recomputation: the two sum the same float64 loads in
// different orders.
const checkTol = 1e-9

// checkSchedule re-evaluates a returned schedule from the instance's raw
// matrices, without any of the program's schedule code: every job is
// assigned exactly once to a machine it is eligible on, the makespan
// recomputed with one setup per (machine, class) equals the reported one,
// and the reported lower bound is positive and at most the makespan.
func checkSchedule(in *core.Instance, assign []int, makespan, lower float64) error {
	if len(assign) != in.N {
		return fmt.Errorf("schedule assigns %d jobs, instance has %d", len(assign), in.N)
	}
	loads := make([]float64, in.M)
	setup := make([]bool, in.M*in.K)
	for j, i := range assign {
		if i < 0 || i >= in.M {
			return fmt.Errorf("job %d is on machine %d, want one of [0,%d)", j, i, in.M)
		}
		if in.Eligible != nil && !in.Eligible[j][i] {
			return fmt.Errorf("job %d is on machine %d, which it is not eligible for", j, i)
		}
		k := in.Class[j]
		p, s := in.P[i][j], in.S[i][k]
		if math.IsInf(p, 0) || math.IsNaN(p) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("job %d of class %d is on machine %d, which cannot run it (p=%v, setup=%v)", j, k, i, p, s)
		}
		loads[i] += p
		if !setup[i*in.K+k] {
			setup[i*in.K+k] = true
			loads[i] += s
		}
	}
	got := 0.0
	for _, l := range loads {
		got = math.Max(got, l)
	}
	if math.Abs(got-makespan) > checkTol*math.Max(1, got) {
		return fmt.Errorf("reported makespan %v, recomputed %v", makespan, got)
	}
	if !(lower > 0) {
		return fmt.Errorf("reported lower bound %v is not positive", lower)
	}
	if lower > makespan*(1+checkTol) {
		return fmt.Errorf("lower bound %v exceeds makespan %v", lower, makespan)
	}
	return nil
}
