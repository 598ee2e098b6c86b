package plan

import (
	"reflect"
	"slices"
	"testing"

	"hrtsched/internal/sim"
)

func TestIncrementalMatchesAnalyzeScripted(t *testing.T) {
	inc := NewIncremental(specPhi79)

	check := func(got Verdict, set TaskSet, ctx string) {
		t.Helper()
		want := Analyze(specPhi79, set)
		if !VerdictsEquivalent(got, want) {
			t.Fatalf("%s: verdict diverges\nincremental %+v\nfull        %+v", ctx, got, want)
		}
	}

	// Empty engine answers like the empty analysis.
	check(inc.Verdict(), nil, "empty")

	// First add: full path (no retained state yet).
	a := Task{PeriodNs: 200_000, SliceNs: 40_000}
	check(inc.Add(a), TaskSet{a}, "first add")

	// A dividing period keeps the hyperperiod: answered by patching.
	b := Task{PeriodNs: 100_000, SliceNs: 20_000}
	check(inc.Add(b), TaskSet{a, b}, "dividing-period add")
	if inc.Stats().IncrementalOps == 0 {
		t.Fatalf("harmonic add did not take the incremental path: %+v", inc.Stats())
	}

	// A rejected add must leave the committed set unchanged.
	fat := Task{PeriodNs: 100_000, SliceNs: 90_000}
	v := inc.Add(fat)
	if v.Admit {
		t.Fatalf("over-capacity task admitted: %+v", v)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, TaskSet{a, b}) {
		t.Fatalf("rejected add mutated state: %v", got)
	}
	check(inc.Verdict(), TaskSet{a, b}, "after rejected add")

	// LCM shift (300us does not divide the 200us hyperperiod): fallback.
	c := Task{PeriodNs: 300_000, SliceNs: 30_000}
	full := inc.Stats().FullAnalyses
	check(inc.Add(c), TaskSet{a, b, c}, "lcm-shift add")
	if inc.Stats().FullAnalyses == full {
		t.Fatalf("hyperperiod shift did not fall back to the full analysis")
	}
	if inc.Hyperperiod() != 600_000 {
		t.Fatalf("hyperperiod = %d, want 600000", inc.Hyperperiod())
	}

	// Remove with unchanged hyperperiod (100us contributes nothing to the
	// 600us LCM of 200us and 300us): incremental path.
	incOps := inc.Stats().IncrementalOps
	gone, found := inc.Remove(b)
	if !found {
		t.Fatalf("committed task not found for removal")
	}
	check(gone, TaskSet{a, c}, "remove")
	if inc.Stats().IncrementalOps == incOps {
		t.Fatalf("same-hyperperiod removal did not take the incremental path")
	}

	// Removing a task that is not committed is a found=false no-op.
	if _, found := inc.Remove(Task{PeriodNs: 7, SliceNs: 1}); found {
		t.Fatalf("removal of an uncommitted task reported found")
	}
	check(inc.Verdict(), TaskSet{a, c}, "after failed remove")

	// Gang add and all-or-nothing gang removal.
	gang := TaskSet{{PeriodNs: 200_000, SliceNs: 10_000}, {PeriodNs: 600_000, SliceNs: 30_000}}
	check(inc.TryGang(gang), TaskSet{a, c, gang[0], gang[1]}, "gang add")
	if _, found := inc.RemoveGang(TaskSet{gang[0], {PeriodNs: 1, SliceNs: 1}}); found {
		t.Fatalf("partial gang removal must be all-or-nothing")
	}
	check(inc.Verdict(), TaskSet{a, c, gang[0], gang[1]}, "after refused gang removal")
	rem, found := inc.RemoveGang(gang)
	if !found {
		t.Fatalf("committed gang not found for removal")
	}
	check(rem, TaskSet{a, c}, "gang removal")

	// Reset empties the engine.
	inc.Reset()
	if inc.Len() != 0 || inc.Hyperperiod() != 0 {
		t.Fatalf("Reset left state: %d tasks, hyper %d", inc.Len(), inc.Hyperperiod())
	}
	check(inc.Verdict(), nil, "after reset")
}

func TestIncrementalBadTaskAndConservativeReasons(t *testing.T) {
	inc := NewIncremental(specPhi79)
	seedTask := Task{PeriodNs: 100_000, SliceNs: 10_000}
	inc.Add(seedTask)

	cases := []struct {
		name   string
		task   Task
		reason Reason
	}{
		{"slice-over-period", Task{PeriodNs: 10_000, SliceNs: 20_000}, BadTask},
		{"zero-period", Task{PeriodNs: 0, SliceNs: 1}, BadTask},
		// Coprime-ish period: the ~10^11 ns hyperperiod fits under the
		// ceiling but needs ~10^6 release events, so the step budget
		// rejects conservatively.
		{"sim-steps", Task{PeriodNs: 999_983, SliceNs: 10}, SimSteps},
		// A period past the 2^40 ns hyperperiod ceiling rejects outright.
		{"overflow", Task{PeriodNs: 1 << 41, SliceNs: 1000}, HyperperiodOverflow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := inc.Add(tc.task)
			want := Analyze(specPhi79, TaskSet{seedTask, tc.task})
			if !VerdictsEquivalent(v, want) {
				t.Fatalf("verdict diverges\nincremental %+v\nfull        %+v", v, want)
			}
			if v.Admit || v.Reason != tc.reason {
				t.Fatalf("reason = %v (admit %v), want %v", v.Reason, v.Admit, tc.reason)
			}
			if inc.Len() != 1 {
				t.Fatalf("rejected add mutated state: %v", inc.Tasks())
			}
		})
	}
}

// TestIncrementalPropertyRandomSequences is the planverify property: over
// 1000 seeded random add/remove/gang sequences, every engine verdict must
// be equivalent to the full analysis of the same candidate set. The whole
// property runs through the Analysis interface — the engine comes from the
// registry's NewEngine and the oracles are the interface Analyze and
// AnalyzeGang — so registry dispatch is proven to change nothing. Under
// `-tags planverify` the engine additionally self-checks every verdict.
func TestIncrementalPropertyRandomSequences(t *testing.T) {
	const sequences = 1000
	periods := []int64{50_000, 100_000, 200_000, 400_000, 1_000_000, 999_983}
	rng := sim.NewRand(0x19c7e)

	analysis, err := NewAnalysis(DefaultAnalysisName, specPhi79)
	if err != nil {
		t.Fatal(err)
	}

	var totals IncrementalStats
	var gangRemovals int
	for seq := 0; seq < sequences; seq++ {
		r := rng.Split()
		var eng Engine = analysis.NewEngine()
		var mirror TaskSet
		ops := 8 + r.Intn(6)
		for op := 0; op < ops; op++ {
			roll := r.Float64()
			switch {
			case len(mirror) > 1 && roll < 0.12:
				// Multi-task gang removal: evict 2-3 distinct committed
				// instances at once. The engine consumes the first
				// committed instance equal to each member, so mirror that.
				k := 2 + r.Intn(2)
				if k > len(mirror) {
					k = len(mirror)
				}
				gang := TaskSet{}
				for _, i := range r.Perm(len(mirror))[:k] {
					gang = append(gang, mirror[i])
				}
				candidate := removeFirstEqual(mirror, gang)
				v, found := eng.RemoveGang(gang)
				if !found {
					t.Fatalf("seq %d op %d: committed gang %v not found", seq, op, gang)
				}
				if want := analysis.Analyze(candidate); !VerdictsEquivalent(v, want) {
					t.Fatalf("seq %d op %d: gang-remove verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				mirror = candidate
				gangRemovals++
				checkTasks(t, eng, mirror, seq, op)

			case len(mirror) > 0 && roll < 0.35:
				// Remove a random committed task; the engine evicts the
				// first committed instance equal to it, so mirror that.
				victim := mirror[r.Intn(len(mirror))]
				candidate := removeFirstEqual(mirror, TaskSet{victim})
				v, found := eng.Remove(victim)
				if !found {
					t.Fatalf("seq %d op %d: committed task %v not found", seq, op, victim)
				}
				if want := analysis.Analyze(candidate); !VerdictsEquivalent(v, want) {
					t.Fatalf("seq %d op %d: remove verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				mirror = candidate
				checkTasks(t, eng, mirror, seq, op)

			default:
				gang := TaskSet{randTask(r, periods)}
				for r.Float64() < 0.2 { // occasional multi-task gang
					gang = append(gang, randTask(r, periods))
				}
				candidate := append(append(TaskSet{}, mirror...), gang...)
				v := eng.TryGang(gang)
				if want := analysis.AnalyzeGang(mirror, gang); !VerdictsEquivalent(v, want) {
					t.Fatalf("seq %d op %d: gang verdict diverges\nset  %v\ninc  %+v\nfull %+v",
						seq, op, candidate, v, want)
				}
				if v.Admit {
					mirror = candidate
				}
				checkTasks(t, eng, mirror, seq, op)
			}
		}
		if want := analysis.Analyze(mirror); !VerdictsEquivalent(eng.Verdict(), want) {
			t.Fatalf("seq %d: final committed verdict diverges\nset  %v\ninc  %+v\nfull %+v",
				seq, mirror, eng.Verdict(), want)
		}
		s := eng.Stats()
		totals.IncrementalOps += s.IncrementalOps
		totals.FullAnalyses += s.FullAnalyses
	}
	// The property is only meaningful if every path was actually hit.
	if totals.IncrementalOps == 0 || totals.FullAnalyses == 0 || gangRemovals == 0 {
		t.Fatalf("random sequences did not exercise all paths: %+v, %d gang removals",
			totals, gangRemovals)
	}
	t.Logf("paths over %d sequences: %+v, %d gang removals (verify tag: %v)",
		sequences, totals, gangRemovals, VerifyEnabled)
}

// checkTasks asserts the engine's committed set is the mirror, in
// admission order: Engine.Tasks promises that order, and durable
// snapshots are written from it.
func checkTasks(t *testing.T, eng Engine, mirror TaskSet, seq, op int) {
	t.Helper()
	if got := eng.Tasks(); !slices.Equal(got, mirror) {
		t.Fatalf("seq %d op %d: committed tasks out of admission order\ngot  %v\nwant %v",
			seq, op, got, mirror)
	}
}

// removeFirstEqual mirrors the engine's multiset removal: each gang member
// consumes the first unconsumed instance of set equal to it.
func removeFirstEqual(set, gang TaskSet) TaskSet {
	drop := make(map[int]bool, len(gang))
	for _, g := range gang {
		for i, t := range set {
			if !drop[i] && t == g {
				drop[i] = true
				break
			}
		}
	}
	out := make(TaskSet, 0, len(set)-len(gang))
	for i, t := range set {
		if !drop[i] {
			out = append(out, t)
		}
	}
	return out
}

// randTask draws a mostly-wellformed task; a small fraction is malformed
// (slice over period, zero period) to exercise the BadTask path.
func randTask(r *sim.Rand, periods []int64) Task {
	p := periods[r.Intn(len(periods))]
	switch {
	case r.Float64() < 0.03:
		return Task{PeriodNs: 0, SliceNs: 1}
	case r.Float64() < 0.03:
		return Task{PeriodNs: p, SliceNs: p + 1 + r.Int63n(p)}
	default:
		// Slices up to ~40% of the period: deep sequences still admit
		// several tasks before the bound or the simulation rejects.
		return Task{PeriodNs: p, SliceNs: 1 + r.Int63n(p*2/5)}
	}
}

func TestIncrementalRestore(t *testing.T) {
	inc := NewIncremental(specPhi79)
	a := Task{PeriodNs: 200_000, SliceNs: 40_000}
	b := Task{PeriodNs: 100_000, SliceNs: 20_000}
	inc.Add(a)

	// Restore replaces the committed set wholesale with a fresh analysis.
	set := TaskSet{a, b}
	full := inc.Stats().FullAnalyses
	v := inc.Restore(set)
	if inc.Stats().FullAnalyses != full+1 {
		t.Fatalf("Restore did not run a full analysis")
	}
	if want := Analyze(specPhi79, set); !VerdictsEquivalent(v, want) {
		t.Fatalf("restore verdict diverges:\n got %+v\nwant %+v", v, want)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, set) {
		t.Fatalf("restored set = %v, want %v", got, set)
	}

	// The engine keeps answering incrementally after a restore.
	c := Task{PeriodNs: 100_000, SliceNs: 10_000}
	if want := Analyze(specPhi79, TaskSet{a, b, c}); !VerdictsEquivalent(inc.Add(c), want) {
		t.Fatalf("add after restore diverges")
	}

	// Restore commits even a set the spec rejects: a spec change across a
	// restart must never evict running work, only report it as over-budget.
	fat := TaskSet{{PeriodNs: 100_000, SliceNs: 90_000}}
	if v := inc.Restore(fat); v.Admit {
		t.Fatalf("over-capacity restore admitted: %+v", v)
	}
	if got := inc.Tasks(); !reflect.DeepEqual(got, fat) {
		t.Fatalf("rejected restore did not commit: %v", got)
	}
}
