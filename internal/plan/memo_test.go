package plan

import (
	"testing"

	"hrtsched/internal/sim"
)

// memoBenchSet is a large admitted set whose uncached analysis pays a
// real hyperperiod simulation: many tasks, dividing periods, modest
// utilization so every admission question is non-trivial but admitted.
func memoBenchSet() TaskSet {
	periods := []int64{5_000_000, 10_000_000, 20_000_000, 40_000_000}
	set := make(TaskSet, 0, 40)
	for i := 0; i < 40; i++ {
		p := periods[i%len(periods)]
		set = append(set, Task{PeriodNs: p, SliceNs: p / 100})
	}
	return set
}

func TestMemoAnalyzeBitIdenticalAndCached(t *testing.T) {
	m := NewMemo(specPhi79, 8)
	set := memoBenchSet()
	want := Analyze(specPhi79, set.Canonical())

	if got := m.Analyze(set); got != want {
		t.Fatalf("memo miss verdict diverged:\n got %+v\nwant %+v", got, want)
	}
	// A permuted copy of the same multiset must hit and answer the same
	// stored verdict, bit for bit.
	perm := append(TaskSet(nil), set...)
	perm[0], perm[len(perm)-1] = perm[len(perm)-1], perm[0]
	if got := m.Analyze(perm); got != want {
		t.Fatalf("memo hit verdict diverged:\n got %+v\nwant %+v", got, want)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := NewMemo(specPhi79, 2)
	a := TaskSet{{PeriodNs: 100_000, SliceNs: 10_000}}
	b := TaskSet{{PeriodNs: 200_000, SliceNs: 10_000}}
	c := TaskSet{{PeriodNs: 400_000, SliceNs: 10_000}}
	m.Analyze(a)
	m.Analyze(b)
	m.Analyze(a) // refresh a; b is now oldest
	m.Analyze(c) // evicts b
	m.Analyze(a)
	if st := m.Stats(); st.Entries != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 hits", st)
	}
	m.Analyze(b) // must be a miss again
	if st := m.Stats(); st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses after re-analyzing evicted set", st)
	}
}

// TestMemoAndBatchPropertyRandomSequences is the cached/batched
// counterpart of TestIncrementalPropertyRandomSequences: 1000 random
// mutation sequences driven through a committed engine, where every
// step's answers from (a) the Memo cache, (b) the evaluate-only
// EvaluateGang/TryGangBatch curve path, and (c) the package batch
// functions are compared against the serial uncached Analyze oracle.
// Under -tags planverify every curve answer is additionally
// self-checked inside the engine.
func TestMemoAndBatchPropertyRandomSequences(t *testing.T) {
	const sequences = 1000
	periods := []int64{50_000, 100_000, 200_000, 400_000, 1_000_000, 999_983}
	rng := sim.NewRand(0x8ba7c)

	memo := NewMemo(specPhi79, 64) // small: exercises eviction across sequences
	for seq := 0; seq < sequences; seq++ {
		r := rng.Split()
		eng := NewIncremental(specPhi79)
		mirror := TaskSet{}
		ops := 6 + r.Intn(5)
		for op := 0; op < ops; op++ {
			roll := r.Float64()
			switch {
			case roll < 0.15 && len(mirror) > 1:
				// RemoveGang keeps the committed set moving so batch
				// probes run against post-removal curves too.
				k := 1 + r.Intn(2)
				gang := TaskSet{}
				for _, idx := range r.Perm(len(mirror))[:k] {
					gang = append(gang, mirror[idx])
				}
				if _, ok := eng.RemoveGang(gang); !ok {
					t.Fatalf("seq %d: RemoveGang unmatched", seq)
				}
				mirror = removeFirstEqual(mirror, gang)
			default:
				gang := TaskSet{randTask(r, periods)}
				for r.Float64() < 0.25 {
					gang = append(gang, randTask(r, periods))
				}

				// (b) evaluate-only single probe vs oracle.
				candidate := append(append(TaskSet(nil), mirror...), gang...)
				want := Analyze(specPhi79, candidate)
				if got := eng.EvaluateGang(gang); !VerdictsEquivalent(got, want) {
					t.Fatalf("seq %d op %d: EvaluateGang diverged\n got %+v\nwant %+v",
						seq, op, got, want)
				}

				// (b) batch probe: several candidates against one curve.
				gangs := []TaskSet{gang, {randTask(r, periods)}, nil}
				batch := eng.TryGangBatch(gangs)
				for i, g := range gangs {
					cand := append(append(TaskSet(nil), mirror...), g...)
					if w := Analyze(specPhi79, cand); !VerdictsEquivalent(batch[i], w) {
						t.Fatalf("seq %d op %d: TryGangBatch[%d] diverged\n got %+v\nwant %+v",
							seq, op, i, batch[i], w)
					}
				}

				// (a) memo answers for the candidate, twice: the second
				// call must be a cache hit and still bit-identical to the
				// uncached oracle on the canonical ordering.
				wantCanon := Analyze(specPhi79, candidate.Canonical())
				if got := memo.Analyze(candidate); got != wantCanon {
					t.Fatalf("seq %d op %d: memo.Analyze diverged\n got %+v\nwant %+v",
						seq, op, got, wantCanon)
				}
				if got := memo.Analyze(candidate); got != wantCanon {
					t.Fatalf("seq %d op %d: memo.Analyze (hit) diverged\n got %+v\nwant %+v",
						seq, op, got, wantCanon)
				}

				if v := eng.TryGang(gang); v.Admit {
					mirror = append(mirror, gang...)
				}
			}

			// Committed-state audit after every mutation.
			if want := Analyze(specPhi79, mirror); !VerdictsEquivalent(eng.Verdict(), want) {
				t.Fatalf("seq %d op %d: committed verdict diverged", seq, op)
			}
		}

		// (c) package batch functions over this sequence's final state.
		sets := []TaskSet{mirror, append(TaskSet(nil), mirror...), {randTask(r, periods)}}
		for i, got := range AnalyzeBatch(specPhi79, sets) {
			if want := Analyze(specPhi79, sets[i].Canonical()); got != want {
				t.Fatalf("seq %d: AnalyzeBatch[%d] diverged\n got %+v\nwant %+v", seq, i, got, want)
			}
		}
		gangs := []TaskSet{{randTask(r, periods)}, {randTask(r, periods), randTask(r, periods)}}
		for i, got := range TryGangBatch(specPhi79, mirror, gangs) {
			cand := append(mirror.Canonical(), gangs[i]...)
			if want := Analyze(specPhi79, cand); !VerdictsEquivalent(got, want) {
				t.Fatalf("seq %d: TryGangBatch[%d] diverged\n got %+v\nwant %+v", seq, i, got, want)
			}
		}
	}
	if st := memo.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("property run exercised no cache traffic: %+v", st)
	}
}

func TestMemoCapacityMatchesUncached(t *testing.T) {
	m := NewMemo(specPhi79, 8)
	sets := []TaskSet{
		nil,
		{{PeriodNs: 100_000, SliceNs: 25_000}},
		memoBenchSet(),
		{{PeriodNs: 999_983, SliceNs: 500_000}}, // prime period: curve fallback path
	}
	for i, set := range sets {
		for _, probe := range []int64{0, 50_000, 1_000_000} {
			want := Capacity(specPhi79, set.Canonical(), probe)
			if got := m.Capacity(set, probe); got != want {
				t.Fatalf("set %d probe %d: memo capacity diverged\n got %+v\nwant %+v",
					i, probe, got, want)
			}
			// Repeat: answered from the cached curve, still identical.
			if got := m.Capacity(set, probe); got != want {
				t.Fatalf("set %d probe %d: cached capacity diverged", i, probe)
			}
		}
	}
}

// --- zero-alloc gates (the PR 4 engine-gate idiom) ---

// raceEnabled is set by race_enabled_test.go under -race, where
// sync.Pool's deliberate randomization makes AllocsPerRun nonzero and
// instrumentation cost swamps the speedup ratios.
var raceEnabled bool

// skipUnderRace skips an allocation or wall-clock gate under -race; the
// non-race `make ci` perf/test legs keep the gates binding.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("skipping under -race: pool randomization and instrumentation skew the measurement")
	}
}

func TestAnalyzeSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	set := memoBenchSet()
	Analyze(specPhi79, set) // prime the simulation and digest pools
	allocs := testing.AllocsPerRun(200, func() {
		Analyze(specPhi79, set)
	})
	if allocs != 0 {
		t.Fatalf("Analyze allocates %v per op in steady state, want 0", allocs)
	}
}

func TestDigestZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	set := memoBenchSet()
	set.Digest()
	allocs := testing.AllocsPerRun(1000, func() {
		set.Digest()
	})
	if allocs != 0 {
		t.Fatalf("Digest allocates %v per op in steady state, want 0", allocs)
	}
}

func TestMemoHitZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	m := NewMemo(specPhi79, 8)
	set := memoBenchSet()
	m.Analyze(set)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Analyze(set)
	})
	if allocs != 0 {
		t.Fatalf("memo cache hit allocates %v per op, want 0", allocs)
	}
}

func TestEvaluateGangSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	eng := NewIncremental(specPhi79)
	if v := eng.TryGang(memoBenchSet()); !v.Admit {
		t.Fatalf("bench set unexpectedly rejected: %+v", v)
	}
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	eng.EvaluateGang(gang) // prime scratch buffers
	allocs := testing.AllocsPerRun(1000, func() {
		eng.EvaluateGang(gang)
	})
	if allocs != 0 {
		t.Fatalf("EvaluateGang allocates %v per op in steady state, want 0", allocs)
	}
}

func TestAddRemoveSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	eng := NewIncremental(specPhi79)
	if v := eng.TryGang(memoBenchSet()); !v.Admit {
		t.Fatalf("bench set unexpectedly rejected: %+v", v)
	}
	delta := Task{PeriodNs: 10_000_000, SliceNs: 2_000}
	step := func() {
		if v := eng.Add(delta); !v.Admit {
			t.Fatalf("delta rejected: %+v", v)
		}
		if _, found := eng.Remove(delta); !found {
			t.Fatal("delta not found for removal")
		}
	}
	step() // prime scratch buffers and committed-slice capacity
	full := eng.Stats().FullAnalyses
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Fatalf("Add+Remove allocates %v per op in steady state, want 0", allocs)
	}
	if eng.Stats().FullAnalyses != full {
		t.Fatalf("steady-state deltas fell back to the full analysis: %+v", eng.Stats())
	}
}

// --- repeated-admission and batch-probe microbenchmarks (BENCH_PR8) ---

var verdictSink Verdict

func BenchmarkAnalyzeRepeatUncached(b *testing.B) {
	set := memoBenchSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verdictSink = Analyze(specPhi79, set)
	}
}

func BenchmarkAnalyzeRepeatMemo(b *testing.B) {
	set := memoBenchSet()
	m := NewMemo(specPhi79, 8)
	m.Analyze(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = m.Analyze(set)
	}
}

func BenchmarkGangProbeUncached(b *testing.B) {
	existing := memoBenchSet()
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verdictSink = AnalyzeGang(specPhi79, existing, gang)
	}
}

func BenchmarkGangProbeCurve(b *testing.B) {
	eng := NewIncremental(specPhi79)
	eng.Restore(memoBenchSet())
	gang := TaskSet{{PeriodNs: 10_000_000, SliceNs: 2_000}}
	eng.EvaluateGang(gang)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictSink = eng.EvaluateGang(gang)
	}
}

// TestRepeatAdmissionSpeedupAtLeast10x is the BENCH_PR8 acceptance gate in
// test form: a repeated admission answered from the memo must be at least
// 10x faster than re-running the uncached analysis, and a batch gang
// probe answered from the retained curve at least 10x faster than a full
// re-analysis per candidate.
func TestRepeatAdmissionSpeedupAtLeast10x(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark-backed gate in -short mode")
	}
	skipUnderRace(t)
	if VerifyEnabled {
		// planverify cross-checks every curve verdict with a full Analyze,
		// which is exactly the work the fast path exists to avoid.
		t.Skip("skipping under -tags planverify: per-verdict verification erases the fast path")
	}
	uncached := testing.Benchmark(BenchmarkAnalyzeRepeatUncached)
	memo := testing.Benchmark(BenchmarkAnalyzeRepeatMemo)
	if memo.NsPerOp() == 0 {
		t.Skip("memo path too fast to measure")
	}
	if ratio := float64(uncached.NsPerOp()) / float64(memo.NsPerOp()); ratio < 10 {
		t.Fatalf("repeated-admission speedup %.1fx, want >= 10x (uncached %v, memo %v)",
			ratio, uncached.NsPerOp(), memo.NsPerOp())
	}
	full := testing.Benchmark(BenchmarkGangProbeUncached)
	curve := testing.Benchmark(BenchmarkGangProbeCurve)
	if curve.NsPerOp() == 0 {
		t.Skip("curve path too fast to measure")
	}
	if ratio := float64(full.NsPerOp()) / float64(curve.NsPerOp()); ratio < 10 {
		t.Fatalf("batch-probe speedup %.1fx, want >= 10x (full %v, curve %v)",
			ratio, full.NsPerOp(), curve.NsPerOp())
	}
}
