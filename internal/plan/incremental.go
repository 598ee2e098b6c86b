package plan

import "slices"

// Incremental is the stateful, per-CPU admission engine. It answers the
// same admit/reject question as Analyze — bit-identically, see
// VerdictsEquivalent and the planverify build tag — but keeps the admitted
// task set, its hyperperiod decomposition, and the demand each admitted
// task places on every deadline checkpoint as reusable state, so a
// single-task delta is answered by patching that state instead of
// re-simulating the whole hyperperiod from scratch.
//
// The retained state is the processor demand curve of the admitted set:
// for a synchronous periodic set with deadlines equal to periods, EDF
// meets every deadline over the hyperperiod H exactly when, at every
// deadline checkpoint t (every multiple of an admitted period up to H),
// the total inflated demand released with deadline <= t fits in t. That
// criterion is exact — it accepts and rejects precisely the sets the
// hyperperiod simulation accepts and rejects — and it is patchable: a new
// task with period P dividing H adds floor(t/P)*rem demand at each
// retained checkpoint plus introduces its own multiples of P, and a
// removed task subtracts the same, both in time proportional to the delta
// rather than to the hyperperiod.
//
// The engine falls back to the full simulation (Analyze) whenever the
// patch would not be exact or would not be cheap:
//
//   - the hyperperiod changes (LCM shift): the checkpoint set is stale,
//     so the candidate is re-analyzed in full and the state rebuilt;
//   - the candidate is within reach of the simulation's conservative
//     rejections (step budget): the simulation's SimSteps verdict depends
//     on its exact event count, so any set whose worst-case event count
//     could exceed MaxSimSteps is handed to the real simulation;
//   - the engine holds no valid state (empty set, or a committed set the
//     full analysis itself rejected conservatively).
//
// Beside the curve the engine keeps the committed set a second time in
// canonical order, updated by binary-search insert and delete, so a
// patched verdict's digest is one merge pass over it and the gang rather
// than a sort of the whole candidate. The patch path — add, remove and
// evaluate alike — allocates nothing in the steady state: candidates are
// built in engine scratch, and removals compact the committed slices in
// place.
//
// Incremental is not safe for concurrent use; give each CPU (or each
// cluster node) its own engine.
type Incremental struct {
	spec Spec

	tasks TaskSet // committed tasks, in admission order
	canon TaskSet // the same tasks, in canonical order
	rems  []int64 // per-task inflated per-job demand (slice + 2*overhead)
	hyper int64   // hyperperiod of tasks (0 when empty)
	jobs  int64   // total jobs per hyperperiod: sum of hyper/period

	// points is the retained demand curve: one entry per deadline
	// checkpoint, demand = total inflated demand with deadline <= t.
	// Unordered; index maps checkpoint time to its slice position.
	points []demandPoint
	index  map[int64]int

	// valid reports whether points/jobs describe tasks exactly; it is
	// false while the committed set is one the full analysis rejected
	// conservatively (possible only through Remove) — every operation
	// then takes the full path until an admitted commit rebuilds state.
	valid bool

	last  Verdict // verdict of the committed set
	stats IncrementalStats

	// scratch holds per-engine buffers reused across operations, so the
	// patch path does no per-call slice growth. Safe because the engine is
	// single-owner and nothing retains these buffers past a call.
	scratch struct {
		candidate TaskSet // committed set ++ gang
		gang      TaskSet // the gang, in canonical order
		rems      []int64 // the gang's per-job demand
		drop      []bool  // committed indices a removal consumes
	}
}

type demandPoint struct {
	t      int64
	demand int64
}

// IncrementalStats counts which path answered each operation.
type IncrementalStats struct {
	// IncrementalOps is the number of verdicts produced by patching the
	// retained demand curve.
	IncrementalOps int64
	// FullAnalyses is the number of verdicts that fell back to the full
	// Analyze (hyperperiod shift, step-budget risk, bad task, or no
	// retained state).
	FullAnalyses int64
}

// stepRiskMargin: the hyperperiod simulation takes at most 3*jobs+1 steps
// (every job completes in >=1 segment, each release instant truncates at
// most one running segment and absorbs at most one idle advance), so any
// set with 3*jobs+stepRiskMargin <= MaxSimSteps is guaranteed never to hit
// the SimSteps conservative rejection and the demand-curve verdict is
// exact. Anything closer to the budget is handed to the real simulation.
const stepRiskMargin = 8

// NewIncremental creates an empty engine for the spec.
func NewIncremental(spec Spec) *Incremental {
	inc := &Incremental{spec: spec, index: map[int64]int{}, valid: true}
	inc.last = Analyze(spec, nil)
	return inc
}

// Spec returns the platform spec the engine analyzes under.
func (inc *Incremental) Spec() Spec { return inc.spec }

// Len returns the number of committed tasks.
func (inc *Incremental) Len() int { return len(inc.tasks) }

// Tasks returns a copy of the committed task set in admission order.
func (inc *Incremental) Tasks() TaskSet { return append(TaskSet(nil), inc.tasks...) }

// Hyperperiod returns the committed set's hyperperiod (0 when empty).
func (inc *Incremental) Hyperperiod() int64 { return inc.hyper }

// Utilization returns the committed set's summed utilization.
func (inc *Incremental) Utilization() float64 { return inc.tasks.Utilization() }

// Verdict returns the verdict of the committed set, as Analyze would
// report it.
func (inc *Incremental) Verdict() Verdict { return inc.last }

// Stats reports how many operations took each decision path.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Reset empties the engine.
func (inc *Incremental) Reset() {
	inc.tasks, inc.canon, inc.rems, inc.points = nil, nil, nil, nil
	inc.index = map[int64]int{}
	inc.hyper, inc.jobs = 0, 0
	inc.valid = true
	inc.last = Analyze(inc.spec, nil)
}

// Restore replaces the committed set wholesale — the crash-recovery path
// after loading a durable snapshot. Unlike TryGang it commits regardless
// of the verdict: the set was admitted before the restart, and a spec
// change across restarts must not silently evict running work. The
// returned verdict describes the restored set under the current spec.
func (inc *Incremental) Restore(tasks TaskSet) Verdict {
	candidate := append(TaskSet(nil), tasks...)
	inc.stats.FullAnalyses++
	v := Analyze(inc.spec, candidate)
	inc.rebuild(candidate, v)
	return v
}

// Add evaluates the committed set plus one task and commits it when
// admitted. The verdict describes the combined set either way; a
// rejection leaves the engine unchanged.
func (inc *Incremental) Add(t Task) Verdict { return inc.TryGang(TaskSet{t}) }

// TryGang evaluates the committed set plus a gang, all-or-nothing: the
// gang is committed only when the combined set is admitted, and a
// rejection admits no member. The verdict describes the combined set.
func (inc *Incremental) TryGang(gang TaskSet) Verdict {
	if len(gang) == 0 {
		return inc.last
	}
	candidate := inc.candidate(gang)

	gangRems, gangJobs, eligible := inc.gangEligible(gang)
	var v Verdict
	if eligible {
		inc.stats.IncrementalOps++
		v = inc.patchVerdict(candidate, gang, gangRems)
		verifyVerdict(inc.spec, candidate, v)
		if v.Admit {
			inc.commitGang(gang, gangRems, gangJobs)
			inc.last = v
		}
		return v
	}

	inc.stats.FullAnalyses++
	v = Analyze(inc.spec, candidate)
	verifyVerdict(inc.spec, candidate, v)
	if v.Admit {
		// rebuild keeps the slice, so it gets its own copy of the scratch.
		inc.rebuild(append(TaskSet(nil), candidate...), v)
	}
	return v
}

// Remove evicts one committed task matching t (by value) and returns the
// remaining set's verdict. The second result is false — and the engine
// unchanged — when no committed task matches. Unlike Add, a removal
// always commits: eviction is not an admission question.
func (inc *Incremental) Remove(t Task) (Verdict, bool) {
	return inc.RemoveGang(TaskSet{t})
}

// RemoveGang evicts one committed instance of every task in gang,
// all-or-nothing: if any member has no match the engine is unchanged and
// the second result is false. The verdict describes the remaining set.
func (inc *Incremental) RemoveGang(gang TaskSet) (Verdict, bool) {
	if len(gang) == 0 {
		return inc.last, true
	}
	if !inc.matchIndices(gang) {
		return inc.last, false
	}
	// A removal always commits, so the committed state is updated first
	// and the verdict read from it. When the patch turns out inexact the
	// rebuild below discards the patched curve.
	inc.commitRemove()

	newHyper, overflow := hyperOf(inc.tasks)
	if inc.valid && len(inc.tasks) > 0 && !overflow && newHyper == inc.hyper &&
		3*inc.jobs+stepRiskMargin <= MaxSimSteps {
		inc.stats.IncrementalOps++
		v := inc.removeVerdict()
		verifyVerdict(inc.spec, inc.tasks, v)
		inc.last = v
		return v, true
	}

	inc.stats.FullAnalyses++
	v := Analyze(inc.spec, inc.tasks)
	verifyVerdict(inc.spec, inc.tasks, v)
	inc.rebuild(inc.tasks, v)
	return v, true
}

// EvaluateGang answers the verdict of the committed set plus gang without
// committing anything — the what-if half of TryGang. It patches the
// retained demand curve when eligible and falls back to the full Analyze
// otherwise, so the verdict is equivalent (see VerdictsEquivalent) to
// Analyze on the combined set either way; the planverify build asserts
// it. The engine state is unchanged, and per-engine scratch buffers make
// the patch path allocation-free in the steady state.
func (inc *Incremental) EvaluateGang(gang TaskSet) Verdict {
	if len(gang) == 0 {
		return inc.last
	}
	candidate := inc.candidate(gang)

	gangRems, _, eligible := inc.gangEligible(gang)
	var v Verdict
	if eligible {
		inc.stats.IncrementalOps++
		v = inc.patchVerdict(candidate, gang, gangRems)
	} else {
		inc.stats.FullAnalyses++
		v = Analyze(inc.spec, candidate)
	}
	verifyVerdict(inc.spec, candidate, v)
	return v
}

// TryGangBatch evaluates many candidate gangs against the committed set
// in one retained-curve pass, committing nothing: out[i] is exactly
// EvaluateGang(gangs[i]). One demand-bound decomposition of the committed
// set answers every candidate, so a k-candidate probe costs k curve
// patches instead of k hyperperiod simulations.
func (inc *Incremental) TryGangBatch(gangs []TaskSet) []Verdict {
	out := make([]Verdict, len(gangs))
	for i, g := range gangs {
		out[i] = inc.EvaluateGang(g)
	}
	return out
}

// candidate builds the committed set ++ gang in engine scratch, valid
// until the next operation.
func (inc *Incremental) candidate(gang TaskSet) TaskSet {
	inc.scratch.candidate = append(append(inc.scratch.candidate[:0], inc.tasks...), gang...)
	return inc.scratch.candidate
}

// gangEligible decides whether the gang can be answered by patching:
// state valid and non-empty, every member well-formed, no hyperperiod
// shift, and the grown set safely inside the simulation's step budget.
// The returned rems buffer is engine scratch, valid until the next
// EvaluateGang/TryGang-family call; commit paths copy its values.
func (inc *Incremental) gangEligible(gang TaskSet) (rems []int64, gangJobs int64, ok bool) {
	if !inc.valid || len(inc.tasks) == 0 || inc.hyper <= 0 {
		return nil, 0, false
	}
	if cap(inc.scratch.rems) < len(gang) {
		inc.scratch.rems = make([]int64, len(gang))
	}
	rems = inc.scratch.rems[:len(gang)]
	for i, g := range gang {
		if g.PeriodNs <= 0 || g.SliceNs <= 0 || g.SliceNs > g.PeriodNs {
			return nil, 0, false
		}
		if inc.hyper%g.PeriodNs != 0 {
			return nil, 0, false // LCM shift: hyperperiod would grow
		}
		rems[i] = inflateDemand(g.SliceNs+2*inc.spec.OverheadNs, inc.spec.UtilizationLimit)
		gangJobs += inc.hyper / g.PeriodNs
	}
	if 3*(inc.jobs+gangJobs)+stepRiskMargin > MaxSimSteps {
		return nil, 0, false
	}
	return rems, gangJobs, true
}

// patchVerdict evaluates candidate (= committed set + gang) against the
// patched demand curve without committing anything.
func (inc *Incremental) patchVerdict(candidate, gang TaskSet, gangRems []int64) Verdict {
	sorted := append(inc.scratch.gang[:0], gang...)
	canonSort(sorted)
	inc.scratch.gang = sorted
	v := Verdict{Utilization: candidate.Utilization(), Digest: digestMerged(inc.canon, sorted)}
	v.BoundOK = v.Utilization <= inc.spec.UtilizationLimit+utilEpsilon

	simOK := true
	steps := 0
	for i := range inc.points {
		p := inc.points[i]
		steps++
		if p.demand+gangDemandAt(p.t, gang, gangRems) > p.t {
			simOK = false
			break
		}
	}
	if simOK {
	newPoints:
		for _, g := range gang {
			for t := g.PeriodNs; t <= inc.hyper; t += g.PeriodNs {
				if _, seen := inc.index[t]; seen {
					continue
				}
				steps++
				if inc.baseDemandAt(t)+gangDemandAt(t, gang, gangRems) > t {
					simOK = false
					break newPoints
				}
			}
		}
	}

	v.Sim = SimResult{OK: simOK, Reason: OK, HyperperiodNs: inc.hyper, Steps: steps}
	if !simOK {
		v.Sim.Reason = HyperperiodMiss
	}
	v.Admit = v.BoundOK && simOK
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

// removeVerdict builds the verdict for the committed set after a patched
// removal (hyperperiod unchanged). Demand only shrinks, so the simulation
// gate still passes; only the utilization bound needs re-checking.
func (inc *Incremental) removeVerdict() Verdict {
	v := Verdict{Utilization: inc.tasks.Utilization(), Digest: digestOf(inc.canon)}
	v.BoundOK = v.Utilization <= inc.spec.UtilizationLimit+utilEpsilon
	v.Sim = SimResult{OK: true, Reason: OK, HyperperiodNs: inc.hyper, Steps: len(inc.points)}
	v.Admit = v.BoundOK
	if v.Admit {
		v.Reason = OK
	} else {
		v.Reason = UtilBound
	}
	return v
}

// commitGang applies an admitted gang to the retained state. baseDemandAt
// must see the pre-gang tasks, so tasks/rems are appended last.
func (inc *Incremental) commitGang(gang TaskSet, gangRems []int64, gangJobs int64) {
	for i := range inc.points {
		inc.points[i].demand += gangDemandAt(inc.points[i].t, gang, gangRems)
	}
	for _, g := range gang {
		for t := g.PeriodNs; t <= inc.hyper; t += g.PeriodNs {
			if _, seen := inc.index[t]; seen {
				continue
			}
			inc.index[t] = len(inc.points)
			inc.points = append(inc.points, demandPoint{
				t: t, demand: inc.baseDemandAt(t) + gangDemandAt(t, gang, gangRems)})
		}
	}
	for _, g := range gang {
		i, _ := slices.BinarySearchFunc(inc.canon, g, compareTasks)
		inc.canon = slices.Insert(inc.canon, i, g)
	}
	inc.tasks = append(inc.tasks, gang...)
	inc.rems = append(inc.rems, gangRems...)
	inc.jobs += gangJobs
}

// commitRemove evicts the tasks matchIndices marked: they leave the
// canonical copy, their demand is subtracted at every checkpoint and their
// jobs from the job count, and tasks and rems are compacted in place,
// keeping admission order. Checkpoints that were multiples only of a
// removed period are retained — their demand stays exact and checking
// them is merely redundant — until the next full rebuild prunes them.
func (inc *Incremental) commitRemove() {
	drop := inc.scratch.drop
	for j, d := range drop {
		if !d {
			continue
		}
		gone := inc.tasks[j]
		k, _ := slices.BinarySearchFunc(inc.canon, gone, compareTasks)
		inc.canon = slices.Delete(inc.canon, k, k+1)
		if !inc.valid {
			continue
		}
		inc.jobs -= inc.hyper / gone.PeriodNs
		for i := range inc.points {
			inc.points[i].demand -= (inc.points[i].t / gone.PeriodNs) * inc.rems[j]
		}
	}
	if inc.valid {
		inc.rems = compact(inc.rems, drop)
	}
	inc.tasks = compact(inc.tasks, drop)
}

// compact drops the marked elements of s in place, keeping order.
func compact[T any](s []T, drop []bool) []T {
	n := 0
	for i, x := range s {
		if !drop[i] {
			s[n] = x
			n++
		}
	}
	return s[:n]
}

// rebuild replaces the retained state with a fresh decomposition of an
// analyzed candidate (the full-analysis fallback path).
func (inc *Incremental) rebuild(candidate TaskSet, v Verdict) {
	inc.tasks = candidate
	inc.canon = append(inc.canon[:0], candidate...)
	canonSort(inc.canon)
	inc.last = v
	inc.points, inc.rems = nil, nil
	inc.index = map[int64]int{}
	inc.hyper, inc.jobs = 0, 0
	inc.valid = false

	if len(candidate) == 0 {
		inc.valid = true
		return
	}
	// State is reusable only for a cleanly simulated set safely inside
	// the step budget; conservative or failed verdicts leave the engine
	// on the full path.
	if v.Sim.Reason != OK || v.Sim.HyperperiodNs <= 0 {
		return
	}
	inc.hyper = v.Sim.HyperperiodNs
	inc.rems = make([]int64, len(candidate))
	for i, t := range candidate {
		inc.rems[i] = inflateDemand(t.SliceNs+2*inc.spec.OverheadNs, inc.spec.UtilizationLimit)
		inc.jobs += inc.hyper / t.PeriodNs
	}
	if 3*inc.jobs+stepRiskMargin > MaxSimSteps {
		inc.hyper, inc.jobs, inc.rems = 0, 0, nil
		return
	}
	for _, t := range candidate {
		for p := t.PeriodNs; p <= inc.hyper; p += t.PeriodNs {
			if _, seen := inc.index[p]; seen {
				continue
			}
			inc.index[p] = len(inc.points)
			inc.points = append(inc.points, demandPoint{t: p})
		}
	}
	for i := range inc.points {
		inc.points[i].demand = inc.baseDemandAt(inc.points[i].t)
	}
	inc.valid = true
}

// baseDemandAt returns the committed set's inflated demand with deadline
// <= t.
func (inc *Incremental) baseDemandAt(t int64) int64 {
	var d int64
	for i := range inc.tasks {
		d += (t / inc.tasks[i].PeriodNs) * inc.rems[i]
	}
	return d
}

func gangDemandAt(t int64, gang TaskSet, gangRems []int64) int64 {
	var d int64
	for i := range gang {
		d += (t / gang[i].PeriodNs) * gangRems[i]
	}
	return d
}

// matchIndices resolves a gang to committed task indices, multiset-style:
// each member consumes the first unconsumed committed task equal to it.
// The marks are left in scratch.drop for commitRemove; false means some
// member has no match.
func (inc *Incremental) matchIndices(gang TaskSet) bool {
	drop := slices.Grow(inc.scratch.drop[:0], len(inc.tasks))[:len(inc.tasks)]
	clear(drop)
	inc.scratch.drop = drop
	for _, g := range gang {
		found := false
		for i, t := range inc.tasks {
			if !drop[i] && t == g {
				drop[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// hyperOf folds the hyperperiod of set the same way Simulate does,
// reporting overflow past the simulation ceiling. Empty sets report 0.
func hyperOf(set TaskSet) (int64, bool) {
	if len(set) == 0 {
		return 0, false
	}
	h := int64(1)
	for _, t := range set {
		if t.PeriodNs <= 0 {
			return 0, true
		}
		h = lcm64(h, t.PeriodNs)
		if h <= 0 || h > maxHyperperiodNs {
			return 0, true
		}
	}
	return h, false
}
