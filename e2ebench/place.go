package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"

	"hrtsched/internal/dag"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

// The place stream: a churn of place, place-batch, remove and DAG place
// over a ring of live placements. The oldest placement is removed right
// after a refusal, or whenever the cluster's mean utilization is above
// placeHigh; otherwise the next set is offered. That holds the cluster
// full for the sets on offer (mean utilization 0.65-0.85, since fine-grain
// tasks fill a node with scheduler overhead early), so about a third of
// placements are admitted, and removes stay near a third of the requests.
const (
	placeHigh  = 0.92
	batchItems = 4
	placeRound = 16 // ops per round
)

type opKind uint8

const (
	opPlace opKind = iota
	opBatch
	opRemove
	opDAG
)

type batchItem struct {
	ID    string       `json:"id"`
	Tasks plan.TaskSet `json:"tasks"`
}

type placeOp struct {
	kind     opKind
	id       string
	set      plan.TaskSet
	items    []batchItem
	dag      dag.Task
	analyzer string
}

type placeGen struct {
	r      *rand.Rand
	prefix string
	k      int
	// attempts and admits are the ledger's counts when the generator last
	// looked, so it can tell that every placement since was refused.
	attempts, admits int
}

func newPlaceGen(seed uint64, prefix string) *placeGen {
	return &placeGen{r: newRand(seed, 1), prefix: prefix}
}

// next draws the next operation given the ledger's live placements.
func (g *placeGen) next(l *ledger) placeOp {
	defer func() { g.k++ }()
	u := l.meanUtil()
	// A refusal means the cluster is full for the sets on offer, whatever
	// the mean utilization says; removing next keeps the ring churning
	// instead of settling into refusals only.
	refused := l.attempts > g.attempts && l.admits == g.admits
	g.attempts, g.admits = l.attempts, l.admits
	switch {
	case g.k%8 == 7:
		op := placeOp{kind: opDAG, id: placeID(g.prefix+"-dag", g.k), dag: forkJoinDAG(g.r), analyzer: "classical"}
		if (g.k/8)%2 == 1 {
			op.analyzer = "alpha-beta"
		}
		return op
	case len(l.ring) > 0 && (refused || u > placeHigh):
		return placeOp{kind: opRemove, id: l.ring[0]}
	case g.k%8 == 3:
		op := placeOp{kind: opBatch}
		for i := 0; i < batchItems; i++ {
			op.items = append(op.items, batchItem{ID: placeID(g.prefix+"-b", g.k*batchItems+i), Tasks: placeSet(g.r)})
		}
		return op
	default:
		return placeOp{kind: opPlace, id: placeID(g.prefix, g.k), set: placeSet(g.r)}
	}
}

// predict applies op to an oracle-only ledger, as first-fit would, so a
// stream can be generated ahead of time and replayed at any layer.
func (l *ledger) predict(op placeOp) {
	switch op.kind {
	case opPlace:
		l.decided(op.id, l.firstFit(op.set), op.set)
	case opBatch:
		// The ladder undoes every batch: its items are admitted
		// concurrently, so where they land cannot be predicted.
	case opRemove:
		l.remove(op.id)
	case opDAG:
		L, V := dagPathAndVolume(&op.dag)
		m := int64(op.dag.Cores)
		bound := L + (V-L+m-1)/m
		if bound > deadlineOf(op.dag) {
			return
		}
		st := plan.TaskSet{{PeriodNs: op.dag.PeriodNs, SliceNs: bound}}
		l.decided(op.id, l.firstFit(st), st)
	}
}

func deadlineOf(t dag.Task) int64 {
	if t.DeadlineNs == 0 {
		return t.PeriodNs
	}
	return t.DeadlineNs
}

// placeStream generates n operations ahead of time.
func placeStream(seed uint64, prefix string, n int) []placeOp {
	g := newPlaceGen(seed, prefix)
	l := newLedger(4)
	ops := make([]placeOp, n)
	for i := range ops {
		ops[i] = g.next(l)
		l.predict(ops[i])
	}
	return ops
}

// placeWorkload drives the place stream through the handler in memory
// mode and checks every answer against the ledger.
type placeWorkload struct {
	seed uint64
	gen  *placeGen
	led  *ledger
}

func (w *placeWorkload) name() string { return "place-mem" }

func (w *placeWorkload) prepare() error {
	w.gen = newPlaceGen(w.seed, "p")
	w.led = newLedger(4)
	return nil
}

// historyOps is the length of the fixed history the ladder's durable rung
// recovers.
const historyOps = 3000

// writeHistory writes the fixed recovery history: the place stream of
// seed 0, applied through a durable cluster whose fsyncs are skipped (the
// bytes on disk are what matter, not how fast they got there). It returns
// the history's live placements.
func writeHistory(dir string) (*ledger, error) {
	d, err := bootDaemon(dir, noSyncFS{})
	if err != nil {
		return nil, err
	}
	defer d.close()
	c := newClient(d.handler)
	gen := newPlaceGen(0, "h")
	led := newLedger(4)
	for i := 0; i < historyOps; i++ {
		op := gen.next(led)
		if err := applyPlaceOp(c, led, op, nil); err != nil {
			return nil, fmt.Errorf("history op %d: %w", i, err)
		}
	}
	return led, nil
}

func (w *placeWorkload) warm(c *client) error { return nil }

func (w *placeWorkload) round(c *client, rc *recorder) {
	for i := 0; i < placeRound; i++ {
		op := w.gen.next(w.led)
		if err := applyPlaceOp(c, w.led, op, rc); err != nil {
			rc.fail(err)
		}
	}
}

// finish compares the cluster's status with the ledger.
func (w *placeWorkload) finish(c *client) error {
	st, body, _, _ := c.do(http.MethodGet, "/v1/cluster/status", nil)
	if st != http.StatusOK {
		return fmt.Errorf("status answered %d", st)
	}
	return w.led.checkStatus(body)
}

func (w *placeWorkload) admitRatio() float64 { return w.led.ratio() }

// applyPlaceOp sends one place-stream operation, checks the answer, and
// applies the acknowledged outcome to the ledger. rc == nil sends it
// untimed.
func applyPlaceOp(c *client, l *ledger, op placeOp, rc *recorder) error {
	send := func(path string, body any) (int, []byte) {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		if rc == nil {
			st, resp, _, _ := c.do(http.MethodPost, path, b)
			return st, resp
		}
		return rc.call(c, http.MethodPost, path, b)
	}
	switch op.kind {
	case opPlace:
		st, body := send("/v1/cluster/place", batchItem{ID: op.id, Tasks: op.set})
		var res serve.PlaceResult
		if err := decodeOK(st, body, &res); err != nil {
			return err
		}
		if err := l.checkPlaced(op.set, res.Node); err != nil {
			return err
		}
		if res.Placed != (res.Node >= 0) || res.Placed != res.Verdict.Admit {
			return fmt.Errorf("place answer placed=%v node=%d admit=%v", res.Placed, res.Node, res.Verdict.Admit)
		}
		l.decided(op.id, res.Node, op.set)
	case opBatch:
		st, body := send("/v1/cluster/place-batch", map[string]any{"items": op.items})
		var res struct {
			Items []struct {
				ID     string             `json:"id"`
				Result *serve.PlaceResult `json:"result"`
				Error  *serve.APIError    `json:"error"`
			} `json:"items"`
		}
		if err := decodeOK(st, body, &res); err != nil {
			return err
		}
		if len(res.Items) != len(op.items) {
			return fmt.Errorf("batch of %d answered %d items", len(op.items), len(res.Items))
		}
		var refused []plan.TaskSet
		for i, it := range res.Items {
			if it.ID != op.items[i].ID || it.Result == nil || it.Error != nil {
				return fmt.Errorf("batch item %d (%s) answered %+v", i, op.items[i].ID, it.Error)
			}
			if !it.Result.Placed {
				it.Result.Node = -1
				refused = append(refused, op.items[i].Tasks)
			}
			l.decided(it.ID, it.Result.Node, op.items[i].Tasks)
		}
		// Items of one batch are admitted concurrently, so each is checked
		// against the state after the batch: every node must still pass,
		// and a refused item must not fit anywhere even now (adding work
		// never turns a refusal into an admission).
		if err := l.checkNodes(); err != nil {
			return err
		}
		for _, set := range refused {
			if err := l.checkPlaced(set, -1); err != nil {
				return fmt.Errorf("batch refusal: %w", err)
			}
		}
	case opRemove:
		st, body := send("/v1/cluster/remove", map[string]string{"id": op.id})
		var res struct {
			Verdict plan.Verdict `json:"verdict"`
		}
		if err := decodeOK(st, body, &res); err != nil {
			return err
		}
		node := l.byID[op.id].node
		l.remove(op.id)
		if !res.Verdict.Admit {
			return fmt.Errorf("remove of %s left node %d with a rejected set", op.id, node)
		}
	case opDAG:
		st, body := send("/v1/dag/place", map[string]any{"id": op.id, "task": op.dag, "analyzer": op.analyzer})
		var res serve.DAGPlaceResult
		if err := decodeOK(st, body, &res); err != nil {
			return err
		}
		if err := checkDAG(op.dag, op.analyzer, res.Analysis); err != nil {
			return err
		}
		if !res.Analysis.Admit {
			if res.Placed {
				return fmt.Errorf("DAG %s placed after its analysis rejected it", op.id)
			}
			return nil
		}
		srvTask := plan.Task{PeriodNs: op.dag.PeriodNs, SliceNs: res.Analysis.BoundNs}
		if res.ServerTask != srvTask {
			return fmt.Errorf("DAG server task %+v, want %+v", res.ServerTask, srvTask)
		}
		set := plan.TaskSet{srvTask}
		if err := l.checkPlaced(set, res.Node); err != nil {
			return fmt.Errorf("DAG reservation: %w", err)
		}
		l.decided(op.id, res.Node, set)
	}
	return nil
}

func decodeOK(status int, body []byte, into any) error {
	if status != http.StatusOK {
		return fmt.Errorf("answered %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return nil
}
