package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
)

// analyzeWorkload sends stateless queries: repeats from a popular pool
// three times the daemon's verdict cache (one 4096-entry shard at
// GOMAXPROCS=1), fresh sets with hyperperiods from 1 ms to 1.5 s, batches,
// capacity probes, and DAG analyses, including the fixed DAGs that the
// alpha-beta analyzer under-bounds.
type analyzeWorkload struct {
	seed           uint64
	r              *rand.Rand
	pool           []plan.TaskSet
	poolBodies     [][]byte
	first          [][]byte // first answer to each pool set
	capPool        []plan.TaskSet
	capBodies      [][]byte
	capFirst       [][]byte
	faultBodies    [][]byte
	faults         []dag.Task
	admits, decide int
}

const (
	poolSize    = 12288
	capPoolSize = 512
	batchSize   = 8
)

// analyzeRound is the fixed make-up of one round: 32 requests, shuffled.
var analyzeRound = func() []string {
	var k []string
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			k = append(k, kind)
		}
	}
	add("popular", 20)
	add("fresh", 4)
	add("batch", 2)
	add("capacity", 2)
	add("dag-classical", 1)
	add("dag-alpha-beta", 1)
	add("fault", len(faultDAGs()))
	return k
}()

func (w *analyzeWorkload) name() string { return "analyze-mix" }

func (w *analyzeWorkload) prepare() error {
	w.r = newRand(w.seed, 2)
	w.pool = make([]plan.TaskSet, poolSize)
	w.poolBodies = make([][]byte, poolSize)
	w.first = make([][]byte, poolSize)
	for i := range w.pool {
		w.pool[i] = analyzeSet(w.r)
		w.poolBodies[i] = mustJSON(map[string]any{"tasks": w.pool[i]})
	}
	w.capPool = make([]plan.TaskSet, capPoolSize)
	w.capBodies = make([][]byte, capPoolSize)
	w.capFirst = make([][]byte, capPoolSize)
	for i := range w.capPool {
		w.capPool[i] = capacitySet(w.r)
		w.capBodies[i] = mustJSON(map[string]any{"tasks": w.capPool[i]})
	}
	w.faults = faultDAGs()
	for _, t := range w.faults {
		w.faultBodies = append(w.faultBodies, mustJSON(map[string]any{"task": t, "analyzer": "alpha-beta"}))
	}
	return nil
}

func (w *analyzeWorkload) admitRatio() float64 { return ratio(w.admits, w.decide) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// warm sends every pool set once, untimed, checking each answer and
// keeping it as the reference every repeat must match byte for byte.
func (w *analyzeWorkload) warm(c *client) error {
	defer func() { w.admits, w.decide = 0, 0 }()
	for i, body := range w.poolBodies {
		st, resp, _, _ := c.do(http.MethodPost, "/v1/analyze", body)
		w.first[i] = bytes.Clone(resp)
		if err := w.checkAnalyze(st, resp, w.pool[i]); err != nil {
			return fmt.Errorf("pool set %d: %w", i, err)
		}
	}
	for i, body := range w.capBodies {
		st, resp, _, _ := c.do(http.MethodPost, "/v1/capacity", body)
		w.capFirst[i] = bytes.Clone(resp)
		if err := checkCapacityAnswer(st, resp, w.capPool[i]); err != nil {
			return fmt.Errorf("capacity set %d: %w", i, err)
		}
	}
	return nil
}

func (w *analyzeWorkload) checkAnalyze(st int, resp []byte, set plan.TaskSet) error {
	var v plan.Verdict
	if err := decodeOK(st, resp, &v); err != nil {
		return err
	}
	w.decide++
	if v.Admit {
		w.admits++
	}
	return checkVerdict(set, v)
}

func checkCapacityAnswer(st int, resp []byte, set plan.TaskSet) error {
	var rep plan.CapacityReport
	if err := decodeOK(st, resp, &rep); err != nil {
		return err
	}
	return checkCapacity(set, rep)
}

func (w *analyzeWorkload) round(c *client, rc *recorder) {
	kinds := append([]string(nil), analyzeRound...)
	w.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	faultIdx := 0
	for _, kind := range kinds {
		var err error
		switch kind {
		case "popular":
			i := w.r.IntN(len(w.pool))
			st, resp := rc.call(c, http.MethodPost, "/v1/analyze", w.poolBodies[i])
			if err = w.checkAnalyze(st, resp, w.pool[i]); err == nil && !bytes.Equal(resp, w.first[i]) {
				err = fmt.Errorf("repeat of pool set %d differs from its first answer", i)
			}
		case "fresh":
			set := analyzeSet(w.r)
			st, resp := rc.call(c, http.MethodPost, "/v1/analyze", mustJSON(map[string]any{"tasks": set}))
			err = w.checkAnalyze(st, resp, set)
		case "batch":
			err = w.batch(c, rc)
		case "capacity":
			i := w.r.IntN(len(w.capPool))
			st, resp := rc.call(c, http.MethodPost, "/v1/capacity", w.capBodies[i])
			if err = checkCapacityAnswer(st, resp, w.capPool[i]); err == nil && !bytes.Equal(resp, w.capFirst[i]) {
				err = fmt.Errorf("repeat of capacity set %d differs from its first answer", i)
			}
		case "dag-classical", "dag-alpha-beta":
			analyzer := kind[len("dag-"):]
			t := forkJoinDAG(w.r)
			st, resp := rc.call(c, http.MethodPost, "/v1/dag/analyze", mustJSON(map[string]any{"task": t, "analyzer": analyzer}))
			err = checkDAGAnswer(st, resp, t, analyzer)
		case "fault":
			st, resp := rc.call(c, http.MethodPost, "/v1/dag/analyze", w.faultBodies[faultIdx])
			err = checkDAGAnswer(st, resp, w.faults[faultIdx], "alpha-beta")
			faultIdx++
		}
		if err != nil {
			rc.fail(err)
		}
	}
}

// batch sends one /v1/analyze-batch of six pool sets and two fresh ones.
func (w *analyzeWorkload) batch(c *client, rc *recorder) error {
	sets := make([]plan.TaskSet, batchSize)
	idx := make([]int, batchSize)
	items := make([]map[string]any, batchSize)
	for k := range sets {
		idx[k] = -1
		if k < 6 {
			idx[k] = w.r.IntN(len(w.pool))
			sets[k] = w.pool[idx[k]]
		} else {
			sets[k] = analyzeSet(w.r)
		}
		items[k] = map[string]any{"tasks": sets[k]}
	}
	st, resp := rc.call(c, http.MethodPost, "/v1/analyze-batch", mustJSON(map[string]any{"items": items}))
	var res struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := decodeOK(st, resp, &res); err != nil {
		return err
	}
	if len(res.Items) != batchSize {
		return fmt.Errorf("batch of %d answered %d items", batchSize, len(res.Items))
	}
	for k, raw := range res.Items {
		if err := w.checkAnalyze(http.StatusOK, raw, sets[k]); err != nil {
			return fmt.Errorf("batch item %d: %w", k, err)
		}
		if i := idx[k]; i >= 0 && !bytes.Equal(raw, bytes.TrimSuffix(w.first[i], []byte("\n"))) {
			return fmt.Errorf("batch item %d (pool set %d) differs from the single answer", k, i)
		}
	}
	return nil
}

func checkDAGAnswer(st int, resp []byte, t dag.Task, analyzer string) error {
	var res dag.Result
	if err := decodeOK(st, resp, &res); err != nil {
		return err
	}
	return checkDAG(t, analyzer, res)
}

// finish has nothing left to check: every answer was checked as it came.
func (w *analyzeWorkload) finish(c *client) error { return nil }
