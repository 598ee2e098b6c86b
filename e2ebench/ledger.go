package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

// ledger is the benchmark's own record of acknowledged placements. Every
// answer the cluster gives is checked against it, and it predicts where
// first-fit puts the next set, so the place stream can be replayed at
// every layer.
type ledger struct {
	nodes int
	byID  map[string]ledgerEntry
	ring  []string // live ids, oldest first
	// attempts and admits count placement decisions (single, batch item
	// and analysis-admitted DAG) for the admit ratio.
	attempts, admits int
}

func (l *ledger) ratio() float64 {
	if l.attempts == 0 {
		return 0
	}
	return float64(l.admits) / float64(l.attempts)
}

type ledgerEntry struct {
	node  int
	tasks plan.TaskSet
}

func newLedger(nodes int) *ledger {
	return &ledger{nodes: nodes, byID: map[string]ledgerEntry{}}
}

func (l *ledger) nodeSet(n int) plan.TaskSet {
	var set plan.TaskSet
	for _, id := range l.ring {
		if e := l.byID[id]; e.node == n {
			set = append(set, e.tasks...)
		}
	}
	return set
}

// decided records one placement decision: node < 0 is a refusal.
func (l *ledger) decided(id string, node int, tasks plan.TaskSet) {
	l.attempts++
	if node >= 0 {
		l.admits++
		l.add(id, node, tasks)
	}
}

func (l *ledger) add(id string, node int, tasks plan.TaskSet) {
	l.byID[id] = ledgerEntry{node: node, tasks: slices.Clone(tasks)}
	l.ring = append(l.ring, id)
}

func (l *ledger) remove(id string) {
	delete(l.byID, id)
	if i := slices.Index(l.ring, id); i >= 0 {
		l.ring = slices.Delete(l.ring, i, i+1)
	}
}

func (l *ledger) util(n int) float64 {
	u := 0.0
	for _, t := range l.nodeSet(n) {
		u += t.Utilization()
	}
	return u
}

func (l *ledger) meanUtil() float64 {
	u := 0.0
	for n := 0; n < l.nodes; n++ {
		u += l.util(n)
	}
	return u / float64(l.nodes)
}

// fits reports the oracle's verdict for set joining node n, and whether
// the verdict sits in the float band where it cannot be held to account.
func (l *ledger) fits(n int, set plan.TaskSet) (admit, ambiguous bool) {
	v := edf(append(l.nodeSet(n), set...))
	return v.admit, v.ambiguous
}

// firstFit predicts first-fit placement: the lowest node that admits.
func (l *ledger) firstFit(set plan.TaskSet) int {
	for n := 0; n < l.nodes; n++ {
		if ok, _ := l.fits(n, set); ok {
			return n
		}
	}
	return -1
}

// checkPlaced holds a single placement to first-fit: the chosen node must
// admit the set and every lower node must refuse it. node < 0 is a
// rejection, which every node must refuse.
func (l *ledger) checkPlaced(set plan.TaskSet, node int) error {
	if node >= l.nodes {
		return fmt.Errorf("node %d outside the %d-node cluster", node, l.nodes)
	}
	upto := l.nodes
	if node >= 0 {
		upto = node
		if ok, amb := l.fits(node, set); !ok && !amb {
			return fmt.Errorf("placed on node %d, where the oracle rejects the combined set", node)
		}
	}
	for n := 0; n < upto; n++ {
		if ok, amb := l.fits(n, set); ok && !amb {
			return fmt.Errorf("refused by node %d, where the oracle admits (placed node %d)", n, node)
		}
	}
	return nil
}

// checkNodes holds every node's ledger set to the oracle.
func (l *ledger) checkNodes() error {
	for n := 0; n < l.nodes; n++ {
		if v := edf(l.nodeSet(n)); !v.admit && !v.ambiguous {
			return fmt.Errorf("node %d holds a set the oracle rejects (util %.6f)", n, v.util)
		}
	}
	return nil
}

// checkStatus compares a /v1/cluster/status body with the ledger.
func (l *ledger) checkStatus(body []byte) error {
	var st serve.ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode status: %v", err)
	}
	if st.Placements != len(l.byID) || len(st.Nodes) != l.nodes {
		return fmt.Errorf("status has %d placements on %d nodes, ledger %d on %d",
			st.Placements, len(st.Nodes), len(l.byID), l.nodes)
	}
	for n, ns := range st.Nodes {
		set := l.nodeSet(n)
		sets := int64(0)
		for _, id := range l.ring {
			if l.byID[id].node == n {
				sets++
			}
		}
		if ns.Sets != sets || ns.Tasks != int64(len(set)) {
			return fmt.Errorf("node %d: status %d sets %d tasks, ledger %d sets %d tasks",
				n, ns.Sets, ns.Tasks, sets, len(set))
		}
		if u := l.util(n); math.Abs(ns.Utilization-u) > utilBand {
			return fmt.Errorf("node %d: status utilization %v, ledger %v", n, ns.Utilization, u)
		}
	}
	return nil
}

// checkRecovered compares a reopened cluster's placements with the ledger:
// every acknowledged, unremoved placement must be back on its node.
func (l *ledger) checkRecovered(c *serve.Cluster) error {
	b, err := json.Marshal(c.Status())
	if err != nil {
		return err
	}
	if err := l.checkStatus(b); err != nil {
		return err
	}
	for id, e := range l.byID {
		info, ok := c.Placement(id)
		if !ok || info.Node != e.node {
			return fmt.Errorf("placement %q: recovered=%v on node %d, ledger node %d", id, ok, info.Node, e.node)
		}
	}
	return nil
}
