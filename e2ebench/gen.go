package main

import (
	"fmt"
	"math/rand/v2"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/whatif"
)

// Input generators. Every workload draws its inputs from a PCG stream
// seeded by --seed, so one seed always yields one operation stream; the
// daemon only ever sees the encoded request bodies.

const us = int64(1000)

// placePeriods all divide 10 ms, so a node's committed set never has a
// hyperperiod above 10 ms however the ring churns.
var placePeriods = []int64{200 * us, 250 * us, 400 * us, 500 * us, 625 * us,
	1000 * us, 1250 * us, 2000 * us, 2500 * us, 5000 * us, 10000 * us}

// periodFamilies give the analyze-mix sets their varied hyperperiods: from
// 1 ms (family 0) up to ~1.5 s (family 4), where one simulation walks
// thousands of jobs.
var periodFamilies = [][]int64{
	{100 * us, 125 * us, 200 * us, 250 * us, 500 * us, 1000 * us},
	{200 * us, 400 * us, 500 * us, 1000 * us, 2000 * us, 2500 * us, 5000 * us, 10000 * us},
	{300 * us, 400 * us, 600 * us, 800 * us, 1200 * us, 2400 * us, 4800 * us},
	{700 * us, 1100 * us, 1300 * us, 1400 * us, 2200 * us},
	{1000 * us, 1500 * us, 2200 * us, 3300 * us, 4700 * us},
}

// maxJobsPerHyperperiod keeps every generated set well inside
// plan.MaxSimSteps, so no verdict is a conservative step-budget reject that
// the oracle's closed-form test could not predict.
const maxJobsPerHyperperiod = 12000

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// taskSet draws n tasks with periods from family and a summed utilization
// of about util.
func taskSet(r *rand.Rand, family []int64, n int, util float64) plan.TaskSet {
	for {
		w := make([]float64, n)
		sum := 0.0
		for i := range w {
			w[i] = 0.2 + r.Float64()
			sum += w[i]
		}
		set := make(plan.TaskSet, n)
		for i := range set {
			p := family[r.IntN(len(family))]
			s := int64(util * w[i] / sum * float64(p))
			s = max(s, us)
			s = min(s, p)
			set[i] = plan.Task{PeriodNs: p, SliceNs: s}
		}
		if jobsPerHyperperiod(set) <= maxJobsPerHyperperiod {
			return set
		}
	}
}

// analyzeSet draws one analyze-mix set: 1-8 tasks from a random family at
// 50-105% utilization, so both verdicts and every rejection reason occur.
func analyzeSet(r *rand.Rand) plan.TaskSet {
	f := periodFamilies[r.IntN(len(periodFamilies))]
	return taskSet(r, f, 1+r.IntN(8), 0.5+0.55*r.Float64())
}

// capacitySet draws a set with headroom left for the capacity probe.
func capacitySet(r *rand.Rand) plan.TaskSet {
	f := periodFamilies[r.IntN(3)]
	return taskSet(r, f, 1+r.IntN(5), 0.15+0.6*r.Float64())
}

// placeSet draws one placement gang: 1-4 tasks at 5-35% utilization.
func placeSet(r *rand.Rand) plan.TaskSet {
	return taskSet(r, placePeriods, 1+r.IntN(4), 0.05+0.30*r.Float64())
}

// forkJoinDAG draws a single-source, single-sink fork-join DAG: a source,
// 2-6 parallel chains of 1-2 nodes, and a join. Its period puts the
// classical bound at 3-25% of the period; one in six gets a deadline below
// the bound so the analysis rejects it.
func forkJoinDAG(r *rand.Rand) dag.Task {
	var t dag.Task
	wcet := func() int64 { return (10 + r.Int64N(190)) * us }
	t.Nodes = append(t.Nodes, dag.Node{WCETNs: wcet()})
	branches := 2 + r.IntN(5)
	var tails []int
	for b := 0; b < branches; b++ {
		prev := 0
		length := 1 + r.IntN(2)
		for k := 0; k < length; k++ {
			t.Nodes = append(t.Nodes, dag.Node{WCETNs: wcet()})
			cur := len(t.Nodes) - 1
			t.Edges = append(t.Edges, dag.Edge{From: prev, To: cur})
			prev = cur
		}
		tails = append(tails, prev)
	}
	t.Nodes = append(t.Nodes, dag.Node{WCETNs: wcet()})
	sink := len(t.Nodes) - 1
	for _, tail := range tails {
		t.Edges = append(t.Edges, dag.Edge{From: tail, To: sink})
	}
	t.Cores = 2 + r.IntN(3)
	L, V := dagPathAndVolume(&t)
	bound := L + (V-L+int64(t.Cores)-1)/int64(t.Cores)
	target := 0.03 + 0.22*r.Float64()
	t.PeriodNs = placePeriods[len(placePeriods)-1]
	for _, p := range placePeriods {
		if p >= bound && float64(bound)/float64(p) <= target {
			t.PeriodNs = p
			break
		}
	}
	t.PeriodNs = max(t.PeriodNs, bound)
	if r.IntN(6) == 0 {
		t.DeadlineNs = bound - 1 - r.Int64N(bound/4)
	}
	return t
}

// faultDAGs are the fixed wide independent-node DAGs the alpha-beta
// analyzer under-bounds: its bound covers the longest node only, below
// the ceil(V/m) floor any schedule of the work needs. The first is the
// counterexample {10, 8, 8, 8} on 2 cores with D = 12. They do not depend
// on the seed, so every round fails exactly these operations.
func faultDAGs() []dag.Task {
	indep := func(name string, cores int, deadline int64, wcets ...int64) dag.Task {
		t := dag.Task{Name: name, Cores: cores, DeadlineNs: deadline * us, PeriodNs: 1000 * us}
		for _, w := range wcets {
			t.Nodes = append(t.Nodes, dag.Node{WCETNs: w * us})
		}
		return t
	}
	return []dag.Task{
		indep("wide-4x2", 2, 12, 10, 8, 8, 8),
		indep("wide-7x3", 3, 50, 40, 30, 30, 30, 30, 30, 30),
	}
}

// simModels are the execution models the simulate workload mixes.
var simModels = []string{"wcet", "half-random", "full-random", "random-1.05,1.6"}

var simDegrades = []string{"off", "demote", "shrink", "evict"}

var simPeriods = []int64{1000 * us, 2000 * us, 2500 * us, 5000 * us, 10000 * us}

// scenario draws one /v1/simulate scenario: 2-4 CPUs, 2-6 tasks at 20-70%
// per CPU, a model, zero or one fault preset, a degrade policy, 1-4
// hyperperiods and 3-6 replications. Half the scenarios are clean (wcet
// model, wcet_ns below the slice, no faults), the case the oracle can
// check against the analytical verdict.
func scenario(r *rand.Rand, faults []string, name string) whatif.Scenario {
	sc := whatif.Scenario{
		Name:         name,
		CPUs:         2 + r.IntN(3),
		Hyperperiods: 1 + r.IntN(4),
		Replications: 3 + r.IntN(4),
		Degrade:      simDegrades[r.IntN(len(simDegrades))],
	}
	clean := r.IntN(2) == 0
	if clean {
		sc.Model = "wcet"
	} else {
		sc.Model = simModels[r.IntN(len(simModels))]
		if k := r.IntN(len(faults) + 1); k < len(faults) {
			sc.Faults = []string{faults[k]}
		}
	}
	n := 2 + r.IntN(5)
	perCPU := make([]float64, sc.CPUs)
	for i := range perCPU {
		perCPU[i] = 0.2 + 0.5*r.Float64()
	}
	counts := make([]int, sc.CPUs)
	cpuOf := make([]int, n)
	for i := range cpuOf {
		cpuOf[i] = i % sc.CPUs
		if i >= sc.CPUs {
			cpuOf[i] = r.IntN(sc.CPUs)
		}
		counts[cpuOf[i]]++
	}
	for i := 0; i < n; i++ {
		p := simPeriods[r.IntN(len(simPeriods))]
		s := max(int64(perCPU[cpuOf[i]]/float64(counts[cpuOf[i]])*float64(p)), 10*us)
		t := whatif.Task{PeriodNs: p, SliceNs: s, CPU: cpuOf[i]}
		if clean {
			t.WcetNs = s * 8 / 10
		} else if r.IntN(2) == 0 {
			t.WcetNs = s * 9 / 10
		}
		if r.IntN(3) == 0 {
			t.PhaseNs = r.Int64N(p / 2)
		}
		sc.Tasks = append(sc.Tasks, t)
	}
	return sc
}

// jobsPerHyperperiod counts the jobs one hyperperiod of the set releases.
func jobsPerHyperperiod(set plan.TaskSet) int64 {
	h := int64(1)
	for _, t := range set {
		h = lcm(h, t.PeriodNs)
		if h > 1<<40 {
			return 1 << 62
		}
	}
	var jobs int64
	for _, t := range set {
		jobs += h / t.PeriodNs
	}
	return jobs
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }

func placeID(prefix string, n int) string { return fmt.Sprintf("%s-%d", prefix, n) }
