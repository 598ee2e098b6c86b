package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/route"
	"hrtsched/internal/serve"
	"hrtsched/internal/sim"
	"hrtsched/internal/wal"
	"hrtsched/internal/whatif"
)

// The per-layer ladder replays each workload's operation stream against
// the public entry point of each layer, from the inside out: plan engines,
// the cluster and server sessions, the HTTP handler, a K=1 router in front
// of it, and a loopback socket. Every rung reports the median time per
// call, once at GOMAXPROCS=1 (suffix -p1) and once at all cores (-pall); a
// layer's self time is the difference between adjacent rungs. Counts and
// ratios carry no suffix.

// Every rung replays a fixed number of operations, the same prefix of the
// same stream at every layer, so adjacent rungs time identical work.
const (
	ladderPlaceOps   = 3000
	ladderDurableOps = 1000
	ladderWALAppends = 1000
	ladderSets       = 2048
	ladderCapacity   = 512
	ladderDAGs       = 1024
	ladderHTTPQuery  = 4000
	ladderBatches    = 400
	ladderScenarios  = 96
	ladderChains     = 10
)

// ladderInputs are the operation streams the rungs replay, drawn from the
// run's seed with the workloads' own generators.
type ladderInputs struct {
	place     []placeOp
	fresh     []plan.TaskSet // analyze-mix fresh sets
	pool      []plan.TaskSet // analyze-mix popular sets
	capacity  []plan.TaskSet
	dags      []dag.Task
	scenarios []serve.SimulateRequest
}

func newLadderInputs(seed uint64) *ladderInputs {
	in := &ladderInputs{place: placeStream(seed, "l", ladderPlaceOps)}
	r := newRand(seed, 4)
	for i := 0; i < ladderSets; i++ {
		in.fresh = append(in.fresh, analyzeSet(r))
	}
	for i := 0; i < ladderCapacity; i++ {
		in.capacity = append(in.capacity, capacitySet(r))
	}
	for i := 0; i < ladderDAGs; i++ {
		in.dags = append(in.dags, forkJoinDAG(r))
	}
	in.dags = append(in.dags, faultDAGs()...)
	for i := 0; i < poolSize; i++ {
		in.pool = append(in.pool, analyzeSet(r))
	}
	sw := &simulateWorkload{seed: seed}
	if err := sw.prepare(); err != nil {
		fatalf("ladder: %v", err)
	}
	for i := 0; i < ladderScenarios; i++ {
		in.scenarios = append(in.scenarios, serve.SimulateRequest{
			Scenario: scenario(sw.r, sw.faults, fmt.Sprintf("l%d", i)), Seed: sw.r.Uint64()})
	}
	return in
}

// sampler times calls into one layer and records a span for each.
type sampler struct {
	layer   string
	spans   *spanLog
	samples []time.Duration
	op      int64
}

func (s *sampler) time(fn func()) {
	t0 := time.Now()
	fn()
	s.record(t0, time.Since(t0))
}

func (s *sampler) record(t0 time.Time, d time.Duration) {
	s.samples = append(s.samples, d)
	s.spans.add(s.layer, t0, d, s.op)
	s.op++
}

// ladderRun holds one pass over the rungs at one GOMAXPROCS setting.
type ladderRun struct {
	in     *ladderInputs
	spans  *spanLog
	suffix string
	first  bool // the -p1 pass also records the counts
	m      map[string]metric
	dir    string
	errs   []error // failed checks
}

func (lr *ladderRun) sampler(layer string) *sampler {
	return &sampler{layer: layer, spans: lr.spans}
}

// latency records a rung's median time per call in microseconds.
func (lr *ladderRun) latency(s *sampler) {
	if len(s.samples) > 0 {
		lr.m[s.layer+lr.suffix] = metric{median(durationsUs(s.samples)), "us"}
	}
}

func (lr *ladderRun) count(name string, v float64, unit string) {
	if lr.first {
		lr.m[name] = metric{v, unit}
	}
}

// ladder runs every rung group at GOMAXPROCS=1 and then at all cores. It
// returns the checks that failed.
func ladder(seed uint64, spans *spanLog, m map[string]metric, dir string) error {
	in := newLadderInputs(seed)
	groups := []func(*ladderRun){
		(*ladderRun).incremental, (*ladderRun).cluster, (*ladderRun).httpPlace,
		(*ladderRun).routeHop, (*ladderRun).loopback, (*ladderRun).durable,
		(*ladderRun).walAppend, (*ladderRun).dagRTA, (*ladderRun).planAnalyze,
		(*ladderRun).serverAnalyze, (*ladderRun).httpAnalyze, (*ladderRun).simulate,
		(*ladderRun).engine,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var errs []error
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		lr := &ladderRun{in: in, spans: spans, m: m, dir: dir, suffix: "-pall", first: procs == 1}
		if procs == 1 {
			lr.suffix = "-p1"
		}
		for _, g := range groups {
			runtime.GC()
			g(lr)
		}
		errs = append(errs, lr.errs...)
	}
	return errors.Join(errs...)
}

func mustBoot(dataDir string, fs wal.FS) *daemon {
	d, err := bootDaemon(dataDir, fs)
	if err != nil {
		fatalf("ladder: boot: %v", err)
	}
	return d
}

// placeLayer is one layer's entry points for the place stream. batch must
// leave the layer as it found it: items of one batch are admitted
// concurrently, so where they land is not predictable, and undoing them
// keeps the rest of the stream valid at every layer.
type placeLayer struct {
	place  func(id string, set plan.TaskSet)
	remove func(id string)
	batch  func(items []batchItem)
	dag    func(op placeOp)
}

// replay sends the first n operations of the place stream to a layer.
func (lr *ladderRun) replay(n int, l placeLayer) {
	for _, op := range lr.in.place[:n] {
		switch op.kind {
		case opPlace:
			l.place(op.id, op.set)
		case opRemove:
			l.remove(op.id)
		case opBatch:
			l.batch(op.items)
		case opDAG:
			l.dag(op)
		}
	}
}

// incremental drives four plan.Incremental engines first-fit, the work a
// cluster's node workers do per placement.
func (lr *ladderRun) incremental() {
	engines := make([]*plan.Incremental, 4)
	for i := range engines {
		engines[i] = plan.NewIncremental(daemonSpec())
	}
	where := map[string]int{}
	sets := map[string]plan.TaskSet{}
	ps, rs := lr.sampler("plan.incremental_place_us"), lr.sampler("plan.incremental_remove_us")
	place := func(id string, set plan.TaskSet) {
		ps.time(func() {
			for n, e := range engines {
				if e.TryGang(set).Admit {
					where[id], sets[id] = n, set
					return
				}
			}
		})
	}
	remove := func(id string) {
		if n, ok := where[id]; ok {
			engines[n].RemoveGang(sets[id])
			delete(where, id)
		}
	}
	lr.replay(ladderPlaceOps, placeLayer{
		place:  place,
		remove: func(id string) { rs.time(func() { remove(id) }) },
		batch: func(items []batchItem) {
			for _, it := range items {
				place(it.ID, it.Tasks)
			}
			for _, it := range items {
				remove(it.ID)
			}
		},
		dag: func(placeOp) {},
	})
	lr.latency(ps)
	lr.latency(rs)
	var full, total int64
	for _, e := range engines {
		st := e.Stats()
		full += st.FullAnalyses
		total += st.FullAnalyses + st.IncrementalOps
	}
	lr.count("plan.incremental_fallbacks_per_kop", 1000*float64(full)/float64(total), "count")
}

// cluster calls the serve.Cluster session directly: the node-queue
// hand-off plus the admission work.
func (lr *ladderRun) cluster() {
	d := mustBoot("", nil)
	defer d.close()
	ctx := context.Background()
	ps, rs := lr.sampler("serve.cluster_place_us"), lr.sampler("serve.cluster_remove_us")
	bs := lr.sampler("serve.cluster_place_batch_item_us")
	lr.replay(ladderPlaceOps, placeLayer{
		place:  func(id string, set plan.TaskSet) { ps.time(func() { d.cluster.Place(ctx, id, set) }) },
		remove: func(id string) { rs.time(func() { d.cluster.Remove(ctx, id) }) },
		batch: func(items []batchItem) {
			bi := make([]serve.BatchPlaceItem, len(items))
			for i, it := range items {
				bi[i] = serve.BatchPlaceItem{ID: it.ID, Tasks: it.Tasks}
			}
			t0 := time.Now()
			res := d.cluster.PlaceBatch(ctx, bi)
			per := time.Since(t0) / time.Duration(len(items))
			for range items {
				bs.record(t0, per)
			}
			for _, r := range res {
				if r.Err == nil && r.Result.Placed {
					d.cluster.Remove(ctx, r.ID)
				}
			}
		},
		dag: func(op placeOp) { d.cluster.PlaceDAG(ctx, op.id, op.dag, op.analyzer) },
	})
	lr.latency(ps)
	lr.latency(rs)
	lr.latency(bs)
}

// httpLayer sends the place stream as requests through post; place is
// the only call a rung times.
func httpLayer(post func(path string, body []byte), place func(body []byte)) placeLayer {
	send := func(path string, v any) { post(path, mustJSON(v)) }
	remove := func(id string) { send("/v1/cluster/remove", map[string]string{"id": id}) }
	return placeLayer{
		place:  func(id string, set plan.TaskSet) { place(mustJSON(batchItem{ID: id, Tasks: set})) },
		remove: remove,
		batch: func(items []batchItem) {
			send("/v1/cluster/place-batch", map[string]any{"items": items})
			for _, it := range items {
				remove(it.ID) // a refused item answers 404, which is fine here
			}
		},
		dag: func(op placeOp) {
			send("/v1/dag/place", map[string]any{"id": op.id, "task": op.dag, "analyzer": op.analyzer})
		},
	}
}

func inProcess(c *client) func(path string, body []byte) {
	return func(path string, body []byte) { c.do(http.MethodPost, path, body) }
}

// timedPlaces replays the place stream through h, timing each place.
func (lr *ladderRun) timedPlaces(h http.Handler, s *sampler) {
	c := newClient(h)
	lr.replay(ladderPlaceOps, httpLayer(inProcess(c), func(body []byte) {
		_, _, t0, d := c.do(http.MethodPost, "/v1/cluster/place", body)
		s.record(t0, d)
	}))
	lr.latency(s)
}

// httpPlace sends the place stream through the in-process handler, and on
// the -p1 pass replays it once more, untimed, to count allocations.
func (lr *ladderRun) httpPlace() {
	d := mustBoot("", nil)
	lr.timedPlaces(d.handler, lr.sampler("serve.http_place_us"))
	d.close()
	if !lr.first {
		return
	}
	d = mustBoot("", nil)
	defer d.close()
	c := newClient(d.handler)
	var n, mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	lr.replay(ladderPlaceOps, httpLayer(inProcess(c), func(body []byte) {
		runtime.ReadMemStats(&ms0)
		c.do(http.MethodPost, "/v1/cluster/place", body)
		runtime.ReadMemStats(&ms1)
		n++
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}))
	lr.count("serve.http_place_allocs", float64(mallocs)/float64(n), "count")
	lr.count("serve.http_place_bytes", float64(bytes)/float64(n), "B")
}

// routeHop puts a K=1 placement router in front of the handler.
func (lr *ladderRun) routeHop() {
	d := mustBoot("", nil)
	defer d.close()
	r, err := route.New([]route.Group{route.NewLocalGroupWithServer(d.cluster, d.srv)}, route.Config{})
	if err != nil {
		fatalf("ladder: router: %v", err)
	}
	lr.timedPlaces(r.Handler(d.srv.Handler()), lr.sampler("route.hop_us"))
}

// loopback serves the handler on a loopback socket and sends the place
// stream over one keep-alive connection. Reference only: most of this
// rung is the kernel's network stack.
func (lr *ladderRun) loopback() {
	d := mustBoot("", nil)
	defer d.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("ladder: listen: %v", err)
	}
	hs := &http.Server{Handler: d.handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once Close is called below
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	s := lr.sampler("net.loopback_place_us")
	post := func(path string, body []byte) {
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			fatalf("ladder: loopback: %v", err)
		}
		// Drain so the connection is reused; a short read would only cost
		// a reconnect.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	lr.replay(ladderPlaceOps, httpLayer(post, func(body []byte) {
		t0 := time.Now()
		post("/v1/cluster/place", body)
		s.record(t0, time.Since(t0))
	}))
	tr.CloseIdleConnections()
	hs.Close()
	<-done
	lr.latency(s)
}

// durable calls a durable cluster directly, timing every WAL fsync, then
// times recovery of the fixed history.
func (lr *ladderRun) durable() {
	dir := filepath.Join(lr.dir, "ladder-durable"+lr.suffix)
	defer os.RemoveAll(dir)
	var syncs []time.Duration
	d := mustBoot(dir, timedFS{syncs: &syncs})
	ctx := context.Background()
	s := lr.sampler("serve.cluster_place_durable_us")
	// Only admitted placements are timed: they are the ones that commit
	// through the log, and refusals would otherwise set the median.
	place := func(id string, set plan.TaskSet) {
		t0 := time.Now()
		if res, err := d.cluster.Place(ctx, id, set); err == nil && res.Placed {
			s.record(t0, time.Since(t0))
		}
	}
	remove := func(id string) { d.cluster.Remove(ctx, id) }
	lr.replay(ladderDurableOps, placeLayer{
		place:  place,
		remove: remove,
		batch: func(items []batchItem) {
			for _, it := range items {
				place(it.ID, it.Tasks)
			}
			for _, it := range items {
				remove(it.ID)
			}
		},
		dag: func(op placeOp) { d.cluster.PlaceDAG(ctx, op.id, op.dag, op.analyzer) },
	})
	st := d.cluster.Status()
	d.close()
	// Every acknowledgement must be durable: reopening the directory
	// recovers exactly the placements the stream predicts.
	want := newLedger(4)
	for _, op := range lr.in.place[:ladderDurableOps] {
		want.predict(op)
	}
	if re, err := bootDaemon(dir, nil); err != nil {
		lr.errs = append(lr.errs, fmt.Errorf("durable rung: reopen: %w", err))
	} else {
		if err := want.checkRecovered(re.cluster); err != nil {
			lr.errs = append(lr.errs, fmt.Errorf("durable rung: recovery: %w", err))
		}
		re.close()
	}
	lr.latency(s)
	lr.latency(&sampler{layer: "wal.fsync_us", samples: syncs})
	if st.Durability != nil && st.Durability.Fsyncs > 0 {
		lr.count("wal.records_per_fsync", float64(st.Durability.Records)/float64(st.Durability.Fsyncs), "count")
	}

	hist := filepath.Join(lr.dir, "ladder-history"+lr.suffix)
	defer os.RemoveAll(hist)
	histLedger, err := writeHistory(hist)
	if err != nil {
		fatalf("ladder: history: %v", err)
	}
	var times []float64
	for i := 0; i < 5; i++ {
		cp := filepath.Join(lr.dir, fmt.Sprintf("ladder-recover%s-%d", lr.suffix, i))
		if err := copyDir(hist, cp); err != nil {
			fatalf("ladder: %v", err)
		}
		runtime.GC()
		t0 := time.Now()
		cl, err := serve.NewCluster(serve.ClusterConfig{Spec: daemonSpec(), Nodes: 4,
			Durability: &serve.DurabilityConfig{Dir: cp}})
		el := time.Since(t0)
		if err != nil {
			fatalf("ladder: recover: %v", err)
		}
		lr.spans.add("durable.recover", t0, el, int64(i))
		times = append(times, el.Seconds())
		// Recovery must bring back exactly the history's placements.
		if err := histLedger.checkRecovered(cl); err != nil {
			lr.errs = append(lr.errs, fmt.Errorf("recovery rung: %w", err))
		}
		cl.Close()
		os.RemoveAll(cp)
	}
	lr.m["durable.recover_s"+lr.suffix] = metric{median(times), "s"}
}

// walAppend appends place-sized records one at a time, each waiting for
// its group commit.
func (lr *ladderRun) walAppend() {
	dir := filepath.Join(lr.dir, "ladder-wal"+lr.suffix)
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		fatalf("ladder: wal: %v", err)
	}
	payload := mustJSON(batchItem{ID: "p-123456", Tasks: lr.in.fresh[0]})
	s := lr.sampler("wal.append_sync_us")
	for i := 0; i < ladderWALAppends; i++ {
		s.time(func() {
			if _, err := l.Append(payload); err != nil {
				fatalf("ladder: wal append: %v", err)
			}
		})
	}
	if err := l.Close(); err != nil {
		fatalf("ladder: wal close: %v", err)
	}
	lr.latency(s)
}

// dagRTA runs both response-time analyses on the DAG stream.
func (lr *ladderRun) dagRTA() {
	for _, a := range []struct {
		layer string
		rta   dag.Analyzer
	}{{"dag.classical_us", dag.Classical{}}, {"dag.alpha_beta_us", dag.AlphaBeta{}}} {
		an := dag.New(daemonSpec(), a.rta)
		s := lr.sampler(a.layer)
		for _, t := range lr.in.dags {
			s.time(func() { an.AnalyzeDAG(&t) })
		}
		lr.latency(s)
	}
}

// planAnalyze calls the pure plan functions on fresh sets.
func (lr *ladderRun) planAnalyze() {
	spec := daemonSpec()
	as := lr.sampler("plan.analyze_us")
	var steps []float64
	for _, set := range lr.in.fresh {
		var v plan.Verdict
		as.time(func() { v = plan.Analyze(spec, set) })
		steps = append(steps, float64(v.Sim.Steps))
	}
	lr.latency(as)
	lr.count("plan.analyze_steps", median(steps), "count")

	cs := lr.sampler("plan.capacity_us")
	for _, set := range lr.in.capacity {
		cs.time(func() { plan.Capacity(spec, set, 0) })
	}
	lr.latency(cs)

	memo := plan.NewMemo(spec, 0)
	ms := lr.sampler("plan.memo_capacity_hit_us")
	for _, set := range lr.in.capacity {
		memo.Capacity(set, 0)
		ms.time(func() { memo.Capacity(set, 0) })
	}
	lr.latency(ms)
}

// serverAnalyze calls the sharded query server: a miss, then a hit on the
// same set.
func (lr *ladderRun) serverAnalyze() {
	srv, err := serve.New(serve.Config{Spec: daemonSpec()})
	if err != nil {
		fatalf("ladder: %v", err)
	}
	defer srv.Close()
	ctx := context.Background()
	hs, ms := lr.sampler("serve.server_analyze_hit_us"), lr.sampler("serve.server_analyze_miss_us")
	for _, set := range lr.in.fresh {
		ms.time(func() { srv.AnalyzeContext(ctx, set) })
		hs.time(func() { srv.AnalyzeContext(ctx, set) })
	}
	lr.latency(hs)
	lr.latency(ms)
}

// httpAnalyze sends the analyze-mix query stream through the handler: the
// popular pool (warmed first, untimed) with one fresh set in five, then
// batches of six popular and two fresh sets.
func (lr *ladderRun) httpAnalyze() {
	d := mustBoot("", nil)
	defer d.close()
	c := newClient(d.handler)
	bodies := make([][]byte, len(lr.in.pool))
	for i, set := range lr.in.pool {
		bodies[i] = mustJSON(map[string]any{"tasks": set})
		c.do(http.MethodPost, "/v1/analyze", bodies[i])
	}
	r := newRand(0, 5)
	query := func(i int) []byte {
		if i%5 == 4 {
			return mustJSON(map[string]any{"tasks": lr.in.fresh[i%len(lr.in.fresh)]})
		}
		return bodies[r.IntN(len(bodies))]
	}
	s := lr.sampler("serve.http_analyze_us")
	hits := 0
	for i := 0; i < ladderHTTPQuery; i++ {
		body := query(i)
		_, _, t0, dur := c.do(http.MethodPost, "/v1/analyze", body)
		s.record(t0, dur)
		if c.w.hdr.Get("X-Hrtd-Cache") == "hit" {
			hits++
		}
	}
	lr.latency(s)
	if !lr.first {
		// At all cores, the default boot: one 4096-entry LRU per core.
		lr.m["serve.lru_hit_ratio"] = metric{float64(hits) / ladderHTTPQuery, "ratio"}
	} else {
		var ms0, ms1 runtime.MemStats
		const n = 500
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			c.do(http.MethodPost, "/v1/analyze", query(i))
		}
		runtime.ReadMemStats(&ms1)
		lr.count("serve.http_analyze_allocs", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	}

	bs := lr.sampler("serve.http_analyze_batch_item_us")
	for i := 0; i < ladderBatches; i++ {
		items := make([]map[string]any, batchSize)
		for k := range items {
			set := lr.in.pool[r.IntN(len(lr.in.pool))]
			if k >= 6 {
				set = lr.in.fresh[(i*2+k)%len(lr.in.fresh)]
			}
			items[k] = map[string]any{"tasks": set}
		}
		_, _, t0, dur := c.do(http.MethodPost, "/v1/analyze-batch", mustJSON(map[string]any{"items": items}))
		bs.record(t0, dur/batchSize)
	}
	lr.latency(bs)
}

// simulate runs the scenario stream through whatif, the server's
// simulation pool and the handler.
func (lr *ladderRun) simulate() {
	ws := lr.sampler("whatif.run_us")
	var steps uint64
	var busy time.Duration
	var hyper int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, req := range lr.in.scenarios {
		t0 := time.Now()
		rep, err := whatif.Run(req.Scenario, req.Seed)
		el := time.Since(t0)
		if err != nil {
			fatalf("ladder: whatif: %v", err)
		}
		ws.record(t0, el)
		busy += el
		steps += rep.EngineSteps
		hyper += req.Scenario.Replications * req.Scenario.Hyperperiods
	}
	runtime.ReadMemStats(&ms1)
	lr.latency(ws)
	lr.m["whatif.ns_per_engine_step"+lr.suffix] = metric{float64(busy.Nanoseconds()) / float64(steps), "ns"}
	lr.count("whatif.allocs_per_hyperperiod", float64(ms1.Mallocs-ms0.Mallocs)/float64(hyper), "count")
	lr.count("whatif.bytes_per_hyperperiod", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(hyper), "B")
	// An exact count: it moves only when the modelled behaviour does.
	lr.count("whatif.engine_steps_per_scenario", float64(steps)/float64(len(lr.in.scenarios)), "count")

	d := mustBoot("", nil)
	defer d.close()
	ctx := context.Background()
	ss := lr.sampler("serve.simulate_us")
	for _, req := range lr.in.scenarios {
		ss.time(func() { d.srv.Simulate(ctx, req) })
	}
	lr.latency(ss)

	c := newClient(d.handler)
	hs := lr.sampler("serve.http_simulate_us")
	var sizes []float64
	for _, req := range lr.in.scenarios {
		_, resp, t0, dur := c.do(http.MethodPost, "/v1/simulate", mustJSON(req))
		hs.record(t0, dur)
		sizes = append(sizes, float64(len(resp)))
	}
	lr.latency(hs)
	lr.count("serve.http_simulate_resp_bytes", median(sizes), "B")
}

// engine times the bare event engine: a chain of soft events, each
// scheduling the next.
func (lr *ladderRun) engine() {
	const chain = 200_000
	var perEvent []float64
	for i := 0; i < ladderChains; i++ {
		e := sim.NewEngine()
		n := 0
		var next sim.Handler
		next = func(sim.Time) {
			if n++; n < chain {
				e.After(10, sim.Soft, next)
			}
		}
		e.After(10, sim.Soft, next)
		t0 := time.Now()
		e.RunAll(chain + 1)
		el := time.Since(t0)
		lr.spans.add("sim.engine_event_ns", t0, el, int64(i))
		perEvent = append(perEvent, float64(el.Nanoseconds())/chain)
	}
	lr.m["sim.engine_event_ns"+lr.suffix] = metric{median(perEvent), "ns"}
}
