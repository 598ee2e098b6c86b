package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/whatif"
)

// The oracles below are written from the paper's admission model, not from
// the daemon's code: a job of slice C costs two scheduler invocations, the
// utilization limit reserves a share of every interval for non-periodic
// work, and EDF on one CPU with synchronous implicit-deadline jobs is
// feasible exactly when the inflated demand fits, sum D/T <= 1. The demand
// test runs in integer arithmetic over the hyperperiod, so it has no
// rounding band.

// oracleOverheadNs is the phi machine's scheduler invocation cost (about
// 6000 cycles at 1.3 GHz), the figure every verdict is checked against.
const (
	oracleOverheadNs = 4615
	oracleLimit      = 0.99
	// utilEpsilon is the tolerance the admission cap comparison allows.
	utilEpsilon = 1e-12
	// utilBand marks a node whose summed utilization sits so close to the
	// cap that float summation order decides the verdict; such a verdict
	// is not held against the daemon.
	utilBand = 1e-9
)

// errFaultAlphaBeta tags the known fault: the alpha-beta DAG analyzer
// returns a bound below the ceil(V/m) floor no schedule can beat.
var errFaultAlphaBeta = errors.New("alpha-beta bound below the ceil(V/m) floor (internal/dag/rta.go)")

// edfVerdict is the oracle's answer for one set on one CPU.
type edfVerdict struct {
	admit     bool
	utilOK    bool
	util      float64 // summed in canonical order, as the daemon reports it
	ambiguous bool    // util within utilBand of the cap
}

// demandNs is the wall time one job of slice C takes once its two
// scheduler invocations are charged and the cap's reserve is set aside.
func demandNs(sliceNs int64) int64 {
	return int64(float64(sliceNs+2*oracleOverheadNs)/oracleLimit) + 1
}

func canonical(set plan.TaskSet) plan.TaskSet {
	out := slices.Clone(set)
	slices.SortFunc(out, func(a, b plan.Task) int {
		if c := cmp.Compare(a.PeriodNs, b.PeriodNs); c != 0 {
			return c
		}
		return cmp.Compare(a.SliceNs, b.SliceNs)
	})
	return out
}

// edf runs the oracle's admission test on one CPU's set.
func edf(set plan.TaskSet) edfVerdict {
	var v edfVerdict
	for _, t := range canonical(set) {
		v.util += float64(t.SliceNs) / float64(t.PeriodNs)
	}
	v.utilOK = v.util <= oracleLimit+utilEpsilon
	v.ambiguous = math.Abs(v.util-oracleLimit) <= utilBand
	h := int64(1)
	for _, t := range set {
		h = lcm(h, t.PeriodNs)
	}
	var demand int64
	for _, t := range set {
		demand += demandNs(t.SliceNs) * (h / t.PeriodNs)
	}
	v.admit = v.utilOK && demand <= h
	return v
}

func (v edfVerdict) reason() string {
	switch {
	case !v.utilOK:
		return "util-cap"
	case !v.admit:
		return "hyperperiod-miss"
	default:
		return "ok"
	}
}

// checkVerdict holds a stateless /v1/analyze verdict to the oracle: the
// decision, the reason and the utilization must all match exactly.
func checkVerdict(set plan.TaskSet, got plan.Verdict) error {
	want := edf(set)
	if want.ambiguous {
		return nil
	}
	if got.Admit != want.admit || got.Reason.String() != want.reason() {
		return fmt.Errorf("verdict admit=%v reason=%s, oracle admit=%v reason=%s (util %.6f)",
			got.Admit, got.Reason, want.admit, want.reason(), want.util)
	}
	if got.Utilization != want.util {
		return fmt.Errorf("utilization %v, oracle sum %v", got.Utilization, want.util)
	}
	return nil
}

// checkCapacity holds a capacity answer to maximality: the set plus the
// reported extra slice admits, and one more nanosecond rejects.
func checkCapacity(set plan.TaskSet, got plan.CapacityReport) error {
	p := got.ProbePeriodNs
	wantProbe := int64(0)
	for _, t := range set {
		wantProbe = max(wantProbe, t.PeriodNs)
	}
	if p != wantProbe {
		return fmt.Errorf("probe period %d, want the set's largest period %d", p, wantProbe)
	}
	with := func(s int64) edfVerdict {
		return edf(append(slices.Clone(set), plan.Task{PeriodNs: p, SliceNs: s}))
	}
	s := got.MaxExtraSliceNs
	switch {
	case s < 0 || s > p:
		return fmt.Errorf("max extra slice %d outside [0, %d]", s, p)
	case s == 0:
		if v := with(1); v.admit && !v.ambiguous {
			return fmt.Errorf("capacity 0 but a 1 ns probe admits")
		}
	default:
		if v := with(s); !v.admit && !v.ambiguous {
			return fmt.Errorf("capacity %d ns but that probe rejects", s)
		}
		if s < p {
			if v := with(s + 1); v.admit && !v.ambiguous {
				return fmt.Errorf("capacity %d ns is not maximal: %d ns admits", s, s+1)
			}
		}
	}
	return nil
}

// dagPathAndVolume computes the critical path L and the volume V of one
// release by a longest-path pass over the nodes in topological order.
func dagPathAndVolume(t *dag.Task) (L, V int64) {
	n := len(t.Nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range t.Edges {
		succ[e.From] = append(succ[e.From], e.To)
		indeg[e.To]++
	}
	finish := make([]int64, n)
	start := make([]int64, n)
	queue := []int{}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		finish[u] = start[u] + t.Nodes[u].WCETNs
		L = max(L, finish[u])
		for _, v := range succ[u] {
			start[v] = max(start[v], finish[u])
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	for _, nd := range t.Nodes {
		V += nd.WCETNs
	}
	return L, V
}

// checkDAG holds one response-time verdict to the floor every DAG bound
// must respect: no schedule on m cores finishes a release before its
// critical path, nor before ceil(V/m). The classical bound is also checked
// for its exact value.
func checkDAG(t dag.Task, analyzer string, got dag.Result) error {
	L, V := dagPathAndVolume(&t)
	m := int64(t.Cores)
	if got.CriticalPathNs != L || got.VolumeNs != V {
		return fmt.Errorf("path %d volume %d, oracle %d %d", got.CriticalPathNs, got.VolumeNs, L, V)
	}
	d := t.DeadlineNs
	if d == 0 {
		d = t.PeriodNs
	}
	if got.Admit != (got.BoundNs <= d) {
		return fmt.Errorf("admit=%v with bound %d and deadline %d", got.Admit, got.BoundNs, d)
	}
	if floor := max(L, (V+m-1)/m); got.BoundNs < floor {
		return fmt.Errorf("%w: %s bound %d < floor %d", errFaultAlphaBeta, analyzer, got.BoundNs, floor)
	}
	if analyzer == "classical" {
		if want := L + (V-L+m-1)/m; got.BoundNs != want {
			return fmt.Errorf("classical bound %d, oracle %d", got.BoundNs, want)
		}
	}
	return nil
}

// admissionDelayNs bounds the CPU time a task takes to be admitted by the
// simulated kernel after boot; its first arrival is anchored there. Until
// then the task runs only in the time left by the tasks already admitted
// on its CPU, so on a CPU whose tasks reserve a share u of it, admission
// comes at most admissionDelayNs/(1-u) after boot, and a replication of D
// ns sees between floor(D/T) - ceil((delay+phase)/T) - 1 and floor(D/T)
// arrivals. Over 815,000 task reports of clean scenarios from this
// generator, the delay scaled by 1-u was at most 1.8 ms; unscaled, it
// reached 4.4 ms on CPUs near 70% (see CHANGES.md). 4 ms leaves a margin.
const admissionDelayNs = 4_000_000

// cleanScenario reports whether sc runs every job at its nominal WCET,
// below its slice, with no faults: the case where an admitted scenario
// must neither miss nor run a job late.
func cleanScenario(sc whatif.Scenario) bool {
	clean := sc.Model == "wcet" && len(sc.Faults) == 0
	for _, t := range sc.Tasks {
		clean = clean && t.WcetNs > 0 && t.WcetNs < t.SliceNs
	}
	return clean
}

// checkReport holds a what-if report to the simulated kernel's own
// properties.
func checkReport(sc whatif.Scenario, body []byte) error {
	var rep whatif.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decode report: %v", err)
	}
	if rep.InvariantViolations != 0 {
		return fmt.Errorf("%d invariant violations (model %s faults %v degrade %s cpus %d)", rep.InvariantViolations, sc.Model, sc.Faults, sc.Degrade, sc.CPUs)
	}
	if len(rep.Tasks) != len(sc.Tasks) {
		return fmt.Errorf("%d task reports for %d tasks", len(rep.Tasks), len(sc.Tasks))
	}
	h := int64(1)
	set := make(plan.TaskSet, len(sc.Tasks))
	for i, t := range sc.Tasks {
		h = lcm(h, t.PeriodNs)
		set[i] = plan.Task{PeriodNs: t.PeriodNs, SliceNs: t.SliceNs}
	}
	if rep.HyperperiodNs != h || rep.Replications != sc.Replications || rep.Hyperperiods != sc.Hyperperiods {
		return fmt.Errorf("report hyperperiod %d reps %d hps %d, scenario %d %d %d",
			rep.HyperperiodNs, rep.Replications, rep.Hyperperiods, h, sc.Replications, sc.Hyperperiods)
	}
	clean := cleanScenario(sc)
	dur := h * int64(sc.Hyperperiods)
	load := make([]float64, sc.CPUs)
	for _, t := range sc.Tasks {
		load[t.CPU] += float64(t.SliceNs) / float64(t.PeriodNs)
	}
	for i, t := range sc.Tasks {
		// The generator keeps every CPU at or below 70%, so 1-u > 0.
		delay := int64(math.Ceil(admissionDelayNs / (1 - load[t.CPU])))
		hi := int64(sc.Replications) * (dur / t.PeriodNs)
		lo := int64(sc.Replications) * (dur/t.PeriodNs - (delay+t.PhaseNs+t.PeriodNs-1)/t.PeriodNs - 1)
		got := rep.Tasks[i].Arrivals
		if got > hi || (clean && got < lo) {
			return fmt.Errorf("task %d: %d arrivals outside [%d, %d]", i, got, lo, hi)
		}
	}
	if clean && rep.Admit && (rep.TotalMisses != 0 || rep.TotalLateJobs != 0) {
		return fmt.Errorf("admitted clean scenario missed %d and ran %d jobs late", rep.TotalMisses, rep.TotalLateJobs)
	}
	if want := edf(set); !want.ambiguous && rep.Admit != want.admit {
		return fmt.Errorf("scenario verdict admit=%v, oracle %v", rep.Admit, want.admit)
	}
	return nil
}
