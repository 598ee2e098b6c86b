package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/whatif"
)

// Each oracle is fed the program's own (correct) answer, which it must
// accept, and then a planted wrong answer, which it must count as failed.

func TestVerdictOracle(t *testing.T) {
	spec := daemonSpec()
	r := newRand(7, 7)
	for i := 0; i < 200; i++ {
		set := analyzeSet(r)
		v := plan.Analyze(spec, set.Canonical())
		if err := checkVerdict(set, v); err != nil {
			t.Fatalf("set %d: correct verdict refused: %v", i, err)
		}
		flipped := v
		flipped.Admit = !v.Admit
		if checkVerdict(set, flipped) == nil {
			t.Fatalf("set %d: flipped verdict accepted", i)
		}
		drift := v
		drift.Utilization += 1e-9
		if checkVerdict(set, drift) == nil {
			t.Fatalf("set %d: wrong utilization accepted", i)
		}
	}
}

func TestCapacityOracle(t *testing.T) {
	spec := daemonSpec()
	r := newRand(8, 8)
	for i := 0; i < 20; i++ {
		set := capacitySet(r)
		rep := plan.Capacity(spec, set, 0)
		if err := checkCapacity(set, rep); err != nil {
			t.Fatalf("set %d: correct capacity refused: %v", i, err)
		}
		if rep.MaxExtraSliceNs == 0 || rep.MaxExtraSliceNs == rep.ProbePeriodNs {
			continue
		}
		for _, planted := range []int64{rep.MaxExtraSliceNs - 1, rep.MaxExtraSliceNs + 1} {
			bad := rep
			bad.MaxExtraSliceNs = planted
			if checkCapacity(set, bad) == nil {
				t.Fatalf("set %d: capacity %d accepted, true %d", i, planted, rep.MaxExtraSliceNs)
			}
		}
	}
}

func TestDAGOracle(t *testing.T) {
	an := dag.New(daemonSpec(), dag.Classical{})
	r := newRand(9, 9)
	for i := 0; i < 100; i++ {
		task := forkJoinDAG(r)
		res, err := an.AnalyzeDAG(&task)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDAG(task, "classical", res); err != nil {
			t.Fatalf("dag %d: correct bound refused: %v", i, err)
		}
		low := res
		L, V := dagPathAndVolume(&task)
		low.BoundNs = max(L, (V+int64(task.Cores)-1)/int64(task.Cores)) - 1
		low.Admit = low.BoundNs <= deadlineOf(task)
		if err := checkDAG(task, "classical", low); !errors.Is(err, errFaultAlphaBeta) {
			t.Fatalf("dag %d: bound below the floor not flagged: %v", i, err)
		}
	}
	// The known fault: alpha-beta under-bounds every fixed wide DAG.
	ab := dag.New(daemonSpec(), dag.AlphaBeta{})
	for _, task := range faultDAGs() {
		res, err := ab.AnalyzeDAG(&task)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDAG(task, "alpha-beta", res); !errors.Is(err, errFaultAlphaBeta) {
			t.Errorf("%s: alpha-beta bound %d not flagged: %v", task.Name, res.BoundNs, err)
		}
	}
}

func TestLedgerOracle(t *testing.T) {
	l := newLedger(4)
	big := plan.TaskSet{{PeriodNs: 1000 * us, SliceNs: 600 * us}}
	small := plan.TaskSet{{PeriodNs: 1000 * us, SliceNs: 100 * us}}
	l.add("a", 0, big)
	if err := l.checkPlaced(small, 0); err != nil {
		t.Fatalf("first-fit placement refused: %v", err)
	}
	if l.checkPlaced(small, 1) == nil {
		t.Fatal("placement past an admitting node accepted")
	}
	if l.checkPlaced(small, -1) == nil {
		t.Fatal("rejection of a set that fits accepted")
	}
	if l.checkPlaced(big, 0) == nil {
		t.Fatal("placement onto a full node accepted")
	}
	if err := l.checkPlaced(plan.TaskSet{{PeriodNs: 1000 * us, SliceNs: 1000 * us}}, -1); err != nil {
		t.Fatalf("rejection of a set that fits nowhere refused: %v", err)
	}

	d := mustBoot("", nil)
	defer d.close()
	c := newClient(d.handler)
	led := newLedger(4)
	g := newPlaceGen(3, "t")
	for i := 0; i < 200; i++ {
		if err := applyPlaceOp(c, led, g.next(led), nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	_, body, _, _ := c.do(http.MethodGet, "/v1/cluster/status", nil)
	if err := led.checkStatus(body); err != nil {
		t.Fatalf("status refused: %v", err)
	}
	if err := led.checkRecovered(d.cluster); err != nil {
		t.Fatalf("placements refused: %v", err)
	}
	led.remove(led.ring[0])
	if led.checkStatus(body) == nil {
		t.Fatal("status with a placement the ledger lacks accepted")
	}
	if led.checkRecovered(d.cluster) == nil {
		t.Fatal("cluster with a placement the ledger lacks accepted")
	}
}

// corrupt rewrites one field of every answer on path.
type corrupt struct {
	h        http.Handler
	path     string
	old, new []byte
}

func (c corrupt) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != c.path {
		c.h.ServeHTTP(w, r)
		return
	}
	rw := &respWriter{hdr: w.Header()}
	c.h.ServeHTTP(rw, r)
	w.WriteHeader(rw.status)
	w.Write(bytes.ReplaceAll(rw.buf.Bytes(), c.old, c.new)) //nolint:errcheck — test recorder
}

// TestWorkloadsCountPlantedFaults runs rounds of each workload against the
// daemon, which must pass every check, and then against the same daemon
// with one route's answers corrupted, which must be counted as failed.
func TestWorkloadsCountPlantedFaults(t *testing.T) {
	cases := []struct {
		w        workload
		path     string
		old, new string
	}{
		{&placeWorkload{seed: 1}, "/v1/cluster/place", `"placed":true`, `"placed":false`},
		{&analyzeWorkload{seed: 1}, "/v1/analyze", `"admit":true`, `"admit":false`},
		{&simulateWorkload{seed: 1}, "/v1/simulate", `"invariant_violations":0`, `"invariant_violations":1`},
	}
	for _, tc := range cases {
		t.Run(tc.w.name(), func(t *testing.T) {
			if err := tc.w.prepare(); err != nil {
				t.Fatal(err)
			}
			d := mustBoot("", nil)
			defer d.close()
			clean := newClient(d.handler)
			if aw, ok := tc.w.(*analyzeWorkload); ok {
				aw.pool, aw.poolBodies, aw.first = aw.pool[:64], aw.poolBodies[:64], aw.first[:64]
				aw.capPool, aw.capBodies, aw.capFirst = aw.capPool[:16], aw.capBodies[:16], aw.capFirst[:16]
			}
			if err := tc.w.warm(clean); err != nil {
				t.Fatal(err)
			}
			rc := newRecorder(nil)
			for i := 0; i < 2; i++ {
				tc.w.round(clean, rc)
			}
			if rc.unexpected() != 0 {
				t.Fatalf("clean rounds failed: %v", rc.examples)
			}
			bad := newClient(corrupt{d.handler, tc.path, []byte(tc.old), []byte(tc.new)})
			for i := 0; i < 3; i++ {
				tc.w.round(bad, rc)
			}
			if rc.unexpected() == 0 {
				t.Fatalf("no failure counted in %d operations with %s corrupted", rc.attempted, tc.path)
			}
		})
	}
}

func TestReportOracle(t *testing.T) {
	sc := whatif.Scenario{Name: "clean", CPUs: 2, Model: "wcet", Replications: 2, Hyperperiods: 2,
		Tasks: []whatif.Task{
			{PeriodNs: 1000 * us, SliceNs: 200 * us, WcetNs: 150 * us, CPU: 0},
			{PeriodNs: 2500 * us, SliceNs: 500 * us, WcetNs: 400 * us, CPU: 1},
		}}
	rep, err := whatif.Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(sc, body); err != nil {
		t.Fatalf("correct report refused: %v", err)
	}
	plant := func(edit func(r *whatif.Report)) []byte {
		var r whatif.Report
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, edit := range map[string]func(r *whatif.Report){
		"violation": func(r *whatif.Report) { r.InvariantViolations = 1 },
		"miss":      func(r *whatif.Report) { r.TotalMisses = 1 },
		"late":      func(r *whatif.Report) { r.TotalLateJobs = 1 },
		"arrivals":  func(r *whatif.Report) { r.Tasks[0].Arrivals += 1000 },
		"too-few":   func(r *whatif.Report) { r.Tasks[1].Arrivals = 0 },
		"verdict":   func(r *whatif.Report) { r.Admit = !r.Admit },
	} {
		if checkReport(sc, plant(edit)) == nil {
			t.Errorf("planted %s accepted", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, med, q3)
	}
}

// TestPlaceStreamPredictsDaemon checks the assumption the ladder rests on:
// a stream generated ahead of time, with first-fit predicted by the
// oracle, leaves the daemon exactly as predicted when replayed the way the
// ladder replays it, so every remove names a live placement.
func TestPlaceStreamPredictsDaemon(t *testing.T) {
	const n = 600
	want := newLedger(4)
	ops := placeStream(5, "s", n)
	for _, op := range ops {
		want.predict(op)
	}
	d := mustBoot("", nil)
	defer d.close()
	c := newClient(d.handler)
	lr := &ladderRun{in: &ladderInputs{place: ops}}
	lr.replay(n, httpLayer(inProcess(c), func(body []byte) {
		if st, resp, _, _ := c.do(http.MethodPost, "/v1/cluster/place", body); st != http.StatusOK {
			t.Fatalf("place answered %d: %s", st, resp)
		}
	}))
	_, body, _, _ := c.do(http.MethodGet, "/v1/cluster/status", nil)
	if err := want.checkStatus(body); err != nil {
		t.Fatalf("daemon state differs from the prediction: %v", err)
	}
	for id, e := range want.byID {
		if info, ok := d.cluster.Placement(id); !ok || info.Node != e.node {
			t.Fatalf("placement %s: daemon node %d (live %v), predicted %d", id, info.Node, ok, e.node)
		}
	}
}

// TestLatencyCountsEverySample checks that a slow stretch of a run moves
// the end-to-end figures: they are taken over every request, not per
// window.
func TestLatencyCountsEverySample(t *testing.T) {
	rc := newRecorder(nil)
	for i := 0; i < 100; i++ {
		d := 10 * time.Microsecond
		if i >= 95 {
			d = 1010 * time.Microsecond // a slow burst of 5% of the run
		}
		rc.lat = append(rc.lat, d)
	}
	ops, p50, p99 := rc.latency()
	if ops != 100/(6000e-6) || p50 != 10 || p99 != 1010 {
		t.Fatalf("latency = %v ops/s, p50 %v us, p99 %v us; want %v, 10, 1010", ops, p50, p99, 100/(6000e-6))
	}
}
