// Package plan is the exported, side-effect-free schedulability engine
// behind the scheduler's admission control (Section 3.2). It answers
// admit/reject questions about periodic task sets two ways: the closed-form
// EDF utilization bound, and the hyperperiod simulation prototype that
// charges the scheduler's own per-invocation overhead (two interrupts per
// period, Section 5.3) and therefore correctly rejects fine-grain task sets
// the bound would admit but the platform cannot actually schedule — the
// infeasible region of Figures 6 and 7.
//
// Everything in this package is a pure function of its arguments: no
// kernel, no clock, no global state. internal/core consumes it for online
// admission; internal/serve exposes it as a query service; external
// planners use it for what-if capacity reports and first-fit placement.
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Task is one periodic task: a slice of SliceNs guaranteed every PeriodNs.
type Task struct {
	PeriodNs int64 `json:"period_ns"`
	SliceNs  int64 `json:"slice_ns"`
}

// Utilization returns slice/period, or 0 for a malformed task.
func (t Task) Utilization() float64 {
	if t.PeriodNs <= 0 {
		return 0
	}
	return float64(t.SliceNs) / float64(t.PeriodNs)
}

// TaskSet is a set of periodic tasks competing for one CPU.
type TaskSet []Task

// Utilization returns the summed utilization of the set.
func (ts TaskSet) Utilization() float64 {
	u := 0.0
	for _, t := range ts {
		u += t.Utilization()
	}
	return u
}

// Canonical returns a sorted copy of the set: ascending by period, then by
// slice. Two task sets with the same multiset of tasks canonicalize to the
// same sequence, so digests — and therefore cached answers — agree no
// matter the order a client listed the tasks in.
func (ts TaskSet) Canonical() TaskSet {
	out := append(TaskSet(nil), ts...)
	canonSort(out)
	return out
}

// canonSort sorts a set in place into canonical order: ascending by
// period, then by slice. slices.SortFunc, not sort.Slice: this is on the
// hot path of every digest (cache keys, shard routing, incremental
// verdicts) and the reflection-based swapper costs several times the
// comparisons. Unstable sorting is safe — ties are identical Task values.
func canonSort(ts TaskSet) { slices.SortFunc(ts, compareTasks) }

// compareTasks is the canonical order: by period, then by slice.
func compareTasks(a, b Task) int {
	if a.PeriodNs != b.PeriodNs {
		return cmp.Compare(a.PeriodNs, b.PeriodNs)
	}
	return cmp.Compare(a.SliceNs, b.SliceNs)
}

// digestScratch pools the sort buffer Digest canonicalizes into, so
// digesting — which every Analyze, cache lookup, and shard route does —
// allocates nothing in the steady state.
var digestScratch = sync.Pool{New: func() any {
	buf := make(TaskSet, 0, 64)
	return &buf
}}

// Digest returns a 64-bit FNV-1a hash of the canonical task sequence. Equal
// multisets of tasks have equal digests; the digest is the cache key and
// the shard-routing key of the serving layer.
func (ts TaskSet) Digest() uint64 {
	bp := digestScratch.Get().(*TaskSet)
	buf := append((*bp)[:0], ts...)
	canonSort(buf)
	h := digestOf(buf)
	*bp = buf
	digestScratch.Put(bp)
	return h
}

// digestOf hashes an already-canonical sequence.
func digestOf(ts TaskSet) uint64 {
	h := uint64(fnvOffset64)
	for _, t := range ts {
		h = hashTask(h, t)
	}
	return h
}

// digestMerged is digestOf over the canonical merge of two canonical
// sequences, hashed in one pass without materializing the merge.
func digestMerged(a, b TaskSet) uint64 {
	h := uint64(fnvOffset64)
	for len(a) > 0 && len(b) > 0 {
		if compareTasks(b[0], a[0]) < 0 {
			h, b = hashTask(h, b[0]), b[1:]
		} else {
			h, a = hashTask(h, a[0]), a[1:]
		}
	}
	for _, t := range a {
		h = hashTask(h, t)
	}
	for _, t := range b {
		h = hashTask(h, t)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashTask folds one task into a running FNV-1a hash: the period's eight
// bytes, then the slice's, least significant first.
func hashTask(h uint64, t Task) uint64 {
	return hashInt64(hashInt64(h, t.PeriodNs), t.SliceNs)
}

func hashInt64(h uint64, v int64) uint64 {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// Spec describes the platform and policy a task set is analyzed under.
type Spec struct {
	// OverheadNs is the cost of one local scheduler invocation in
	// nanoseconds; the simulation charges two per job (arrival and slice
	// completion), per Section 5.3.
	OverheadNs int64 `json:"overhead_ns"`
	// UtilizationLimit is the boot-time admission cap (fraction of 1.0);
	// the paper's default configuration uses 0.99.
	UtilizationLimit float64 `json:"utilization_limit"`
}

// Reason says why an analysis rejected a task set (or OK).
type Reason uint8

const (
	// OK: the set is admissible.
	OK Reason = iota
	// BadTask: a task has a non-positive period or slice.
	BadTask
	// UtilBound: total utilization exceeds the utilization limit.
	UtilBound
	// HyperperiodMiss: the EDF hyperperiod simulation found a job that
	// cannot meet its deadline once scheduler overhead is charged.
	HyperperiodMiss
	// HyperperiodOverflow: the task-set hyperperiod is too long to
	// simulate; the set is rejected conservatively.
	HyperperiodOverflow
	// SimSteps: the simulation's step bound was exhausted before the
	// hyperperiod completed; the set is rejected conservatively.
	SimSteps
)

// String names the reason with the stable tags used on the wire.
func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case BadTask:
		return "bad-task"
	case UtilBound:
		return "util-cap"
	case HyperperiodMiss:
		return "hyperperiod-miss"
	case HyperperiodOverflow:
		return "hyperperiod-overflow"
	case SimSteps:
		return "sim-steps-exhausted"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// MarshalText renders the reason tag into JSON and text encodings.
func (r Reason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a reason tag, so clients can decode verdicts that
// travelled over the wire.
func (r *Reason) UnmarshalText(b []byte) error {
	for cand := OK; cand <= SimSteps; cand++ {
		if string(b) == cand.String() {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("plan: unknown reason %q", b)
}

// MaxSimSteps bounds the hyperperiod simulation so analysis cost stays
// bounded no matter how pathological the hyperperiod is.
const MaxSimSteps = 1 << 16

// maxHyperperiodNs is the largest hyperperiod the simulation will attempt
// (about 18 simulated minutes); anything longer is rejected conservatively.
const maxHyperperiodNs = int64(1) << 40

// SimResult reports one hyperperiod simulation.
type SimResult struct {
	// OK is true when every job of every task met its deadline.
	OK bool `json:"ok"`
	// Reason is OK, BadTask, HyperperiodMiss, HyperperiodOverflow or
	// SimSteps.
	Reason Reason `json:"reason"`
	// HyperperiodNs is the simulated hyperperiod (0 when it overflowed).
	HyperperiodNs int64 `json:"hyperperiod_ns"`
	// Steps is the number of simulation steps consumed.
	Steps int `json:"steps"`
}

// Simulate runs EDF over one hyperperiod of the task set, charging
// overheadNs of scheduler time at each arrival and each slice completion,
// and reserving the non-periodic fraction implied by utilLimit. It reports
// whether every job met its deadline. A task set whose hyperperiod is too
// long — or which needs more than MaxSimSteps steps — is rejected
// conservatively. This is the exact decision procedure internal/core uses
// for the AdmitSim policy.
func Simulate(tasks TaskSet, overheadNs int64, utilLimit float64) SimResult {
	if len(tasks) == 0 {
		return SimResult{OK: true, Reason: OK}
	}
	hyper := int64(1)
	for _, t := range tasks {
		if t.PeriodNs <= 0 || t.SliceNs <= 0 {
			return SimResult{Reason: BadTask}
		}
		hyper = lcm64(hyper, t.PeriodNs)
		if hyper <= 0 || hyper > maxHyperperiodNs {
			return SimResult{Reason: HyperperiodOverflow}
		}
	}
	rp := simScratch.Get().(*[]simJob)
	res, buf := simulate(tasks, overheadNs, utilLimit, hyper, (*rp)[:0])
	*rp = buf
	simScratch.Put(rp)
	return res
}

// simJob is one released, not-yet-finished job in the EDF simulation.
type simJob struct {
	task     int
	deadline int64
	rem      int64
}

// simScratch pools the ready-queue buffer so a steady-state Simulate —
// and therefore a steady-state Analyze — allocates nothing.
var simScratch = sync.Pool{New: func() any {
	buf := make([]simJob, 0, 64)
	return &buf
}}

// releaseJobs appends the jobs of every task with an arrival at `at`.
func releaseJobs(ready []simJob, tasks TaskSet, at, overheadNs int64, utilLimit float64) []simJob {
	for i, t := range tasks {
		if at%t.PeriodNs == 0 {
			// Each arrival costs one scheduler invocation and a second
			// fires at slice completion; charge both to the job.
			ready = append(ready, simJob{task: i, deadline: at + t.PeriodNs,
				rem: inflateDemand(t.SliceNs+2*overheadNs, utilLimit)})
		}
	}
	return ready
}

// nextReleaseAfter returns the earliest arrival instant strictly after
// `after`.
func nextReleaseAfter(tasks TaskSet, after int64) int64 {
	next := int64(-1)
	for _, t := range tasks {
		r := (after/t.PeriodNs + 1) * t.PeriodNs
		if next == -1 || r < next {
			next = r
		}
	}
	return next
}

// simulate is Simulate's validated core; it returns the (possibly grown)
// ready buffer alongside the result so the caller can pool it.
func simulate(tasks TaskSet, overheadNs int64, utilLimit float64, hyper int64, ready []simJob) (SimResult, []simJob) {
	now := int64(0)
	steps := 0
	ready = releaseJobs(ready, tasks, 0, overheadNs, utilLimit)
	for now < hyper {
		steps++
		if steps > MaxSimSteps {
			return SimResult{Reason: SimSteps, HyperperiodNs: hyper, Steps: steps}, ready
		}
		if len(ready) == 0 {
			now = nextReleaseAfter(tasks, now)
			if now < hyper {
				ready = releaseJobs(ready, tasks, now, overheadNs, utilLimit)
			}
			continue
		}
		// EDF: find the earliest deadline.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i].deadline < ready[best].deadline {
				best = i
			}
		}
		j := &ready[best]
		runUntil := now + j.rem
		if nr := nextReleaseAfter(tasks, now); nr < runUntil {
			runUntil = nr
		}
		if runUntil > j.deadline {
			// This job cannot finish in time.
			return SimResult{Reason: HyperperiodMiss, HyperperiodNs: hyper, Steps: steps}, ready
		}
		j.rem -= runUntil - now
		if j.rem <= 0 {
			ready[best] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
		}
		now = runUntil
		if now < hyper {
			ready = releaseJobs(ready, tasks, now, overheadNs, utilLimit)
		}
	}
	// Jobs still outstanding at the hyperperiod boundary have deadlines at
	// or before it only if they missed.
	for _, j := range ready {
		if j.rem > 0 && j.deadline <= hyper {
			return SimResult{Reason: HyperperiodMiss, HyperperiodNs: hyper, Steps: steps}, ready
		}
	}
	return SimResult{OK: true, Reason: OK, HyperperiodNs: hyper, Steps: steps}, ready
}

// inflateDemand converts ns of periodic demand into the wall time the
// simulation charges for it: the utilization limit reserves a fraction of
// every interval for non-periodic work, so serving D ns of demand takes
// D/limit ns of wall time (ceil). Simulate and Incremental share this one
// definition so their per-job demand is bit-identical.
func inflateDemand(ns int64, utilLimit float64) int64 {
	if utilLimit <= 0 || utilLimit >= 1 {
		return ns
	}
	return int64(float64(ns)/utilLimit) + 1
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }

// utilEpsilon matches the tolerance internal/core applies to its
// utilization-cap comparisons.
const utilEpsilon = 1e-12

// Verdict is the combined answer of both admission tests for one task set.
type Verdict struct {
	// Admit is the overall verdict: both the utilization bound and the
	// hyperperiod simulation accept the set.
	Admit bool `json:"admit"`
	// Reason is OK when admitted, else the first failing test's reason
	// (UtilBound before the simulation reasons).
	Reason Reason `json:"reason"`
	// Utilization is the set's summed periodic utilization.
	Utilization float64 `json:"utilization"`
	// BoundOK reports the closed-form test: utilization <= limit.
	BoundOK bool `json:"bound_ok"`
	// Sim is the hyperperiod simulation's report. Note the paper's point:
	// BoundOK with !Sim.OK is the infeasible region — sets the bound
	// admits but the platform cannot schedule.
	Sim SimResult `json:"sim"`
	// Digest is the canonical task-set digest the verdict answers for.
	Digest uint64 `json:"digest"`
}

// Analyze runs both admission tests on the task set under the spec and
// returns the combined verdict. It is deterministic and side-effect-free:
// equal (spec, canonical set) pairs produce identical verdicts.
func Analyze(spec Spec, set TaskSet) Verdict {
	v := Verdict{
		Utilization: set.Utilization(),
		Digest:      set.Digest(),
	}
	for _, t := range set {
		if t.PeriodNs <= 0 || t.SliceNs <= 0 || t.SliceNs > t.PeriodNs {
			v.Reason = BadTask
			v.Sim = SimResult{Reason: BadTask}
			return v
		}
	}
	v.BoundOK = v.Utilization <= spec.UtilizationLimit+utilEpsilon
	v.Sim = Simulate(set, spec.OverheadNs, spec.UtilizationLimit)
	v.Admit = v.BoundOK && v.Sim.OK
	switch {
	case v.Admit:
		v.Reason = OK
	case !v.BoundOK:
		v.Reason = UtilBound
	default:
		v.Reason = v.Sim.Reason
	}
	return v
}

// VerdictsEquivalent reports whether two verdicts agree on everything that
// constitutes the admission decision: Admit, Reason, BoundOK, Utilization,
// Digest, and the simulation's OK/Reason/HyperperiodNs. Sim.Steps is
// excluded — it measures the work a particular decision procedure did
// (simulation events for Simulate, demand checkpoints for Incremental),
// not the decision itself. The planverify build and the incremental
// property tests compare through this one definition.
func VerdictsEquivalent(a, b Verdict) bool {
	a.Sim.Steps, b.Sim.Steps = 0, 0
	return a == b
}

// AnalyzeGang answers group admission the way Algorithm 1 does:
// all-or-nothing. The gang joins an existing admitted set only if the
// combined set passes both tests; a rejection admits no member. The verdict
// describes the combined set.
func AnalyzeGang(spec Spec, existing, gang TaskSet) Verdict {
	combined := make(TaskSet, 0, len(existing)+len(gang))
	combined = append(combined, existing...)
	combined = append(combined, gang...)
	return Analyze(spec, combined)
}

// CapacityReport is the what-if answer: how much more work fits on a CPU
// that already runs the given set.
type CapacityReport struct {
	// Utilization is the existing set's summed utilization.
	Utilization float64 `json:"utilization"`
	// BoundHeadroom is the closed-form headroom: limit - utilization
	// (clamped at zero).
	BoundHeadroom float64 `json:"bound_headroom"`
	// ProbePeriodNs is the period of the hypothetical extra task used to
	// measure real headroom.
	ProbePeriodNs int64 `json:"probe_period_ns"`
	// MaxExtraSliceNs is the largest slice an extra task with the probe
	// period could have and still be admitted (0 if even the smallest
	// probe is rejected).
	MaxExtraSliceNs int64 `json:"max_extra_slice_ns"`
	// MaxExtraUtilization is MaxExtraSliceNs / ProbePeriodNs — the real
	// additional utilization the platform can take at this granularity,
	// which is below BoundHeadroom exactly when scheduler overhead bites.
	MaxExtraUtilization float64 `json:"max_extra_utilization"`
}

// Capacity produces the what-if capacity report for a CPU running set. The
// probe period selects the granularity of the hypothetical extra work;
// probePeriodNs <= 0 picks the largest period in the set (so the
// hyperperiod is unchanged), or 1 ms for an empty set. The search is a
// binary search on the probe task's slice, each step a full Analyze.
func Capacity(spec Spec, set TaskSet, probePeriodNs int64) CapacityReport {
	return capacitySearch(spec, set, probePeriodNs, func(probe Task) bool {
		cand := append(append(TaskSet(nil), set...), probe)
		return Analyze(spec, cand).Admit
	})
}

// capacitySearch is Capacity's search over an injectable admit probe, so
// the memoized path can answer each step from a retained demand curve
// while producing the identical report: the probe's Admit bits are the
// only thing the search consumes.
func capacitySearch(spec Spec, set TaskSet, probePeriodNs int64, admitsProbe func(Task) bool) CapacityReport {
	r := CapacityReport{Utilization: set.Utilization()}
	r.BoundHeadroom = spec.UtilizationLimit - r.Utilization
	if r.BoundHeadroom < 0 {
		r.BoundHeadroom = 0
	}
	if probePeriodNs <= 0 {
		for _, t := range set {
			if t.PeriodNs > probePeriodNs {
				probePeriodNs = t.PeriodNs
			}
		}
		if probePeriodNs <= 0 {
			probePeriodNs = 1_000_000 // 1 ms
		}
	}
	r.ProbePeriodNs = probePeriodNs

	admits := func(sliceNs int64) bool {
		return admitsProbe(Task{PeriodNs: probePeriodNs, SliceNs: sliceNs})
	}
	lo, hi := int64(0), probePeriodNs // invariant: admits(lo), !admits(hi+1)
	if !admits(1) {
		return r
	}
	if admits(probePeriodNs) {
		lo = probePeriodNs
	} else {
		lo = 1
		for hi-lo > 1 { // binary search the admit/reject edge
			mid := lo + (hi-lo)/2
			if admits(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	r.MaxExtraSliceNs = lo
	r.MaxExtraUtilization = float64(lo) / float64(probePeriodNs)
	return r
}

// Placement assigns task sets to CPUs.
type Placement struct {
	// CPUOf[i] is the CPU the i-th input set was placed on.
	CPUOf []int `json:"cpu_of"`
	// Utilization[c] is the summed utilization placed on CPU c.
	Utilization []float64 `json:"utilization"`
}

// PlaceFirstFit packs the task sets onto ncpus CPUs first-fit: each set, in
// input order, lands on the lowest-numbered CPU whose combined set still
// passes Analyze. Every bin decision runs the full analysis, so a placement
// that "fits" by utilization arithmetic but fails the hyperperiod
// simulation is correctly pushed to another CPU. It returns an error naming
// the first set that fits nowhere.
func PlaceFirstFit(spec Spec, ncpus int, sets []TaskSet) (Placement, error) {
	if ncpus < 1 {
		return Placement{}, fmt.Errorf("plan: need at least one CPU (got %d)", ncpus)
	}
	bins := make([]TaskSet, ncpus)
	p := Placement{CPUOf: make([]int, len(sets)), Utilization: make([]float64, ncpus)}
	for i, set := range sets {
		placed := -1
		for c := 0; c < ncpus; c++ {
			if AnalyzeGang(spec, bins[c], set).Admit {
				placed = c
				break
			}
		}
		if placed < 0 {
			return Placement{}, fmt.Errorf("plan: task set %d (util %.3f) fits on no CPU", i, set.Utilization())
		}
		bins[placed] = append(bins[placed], set...)
		p.CPUOf[i] = placed
		p.Utilization[placed] = bins[placed].Utilization()
	}
	return p, nil
}
