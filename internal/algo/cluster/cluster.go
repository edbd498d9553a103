// Package cluster defines the common output type of the clustering
// algorithms (DSC, EZ, LC): a partition of the tasks into clusters with an
// implicit schedule on an unbounded machine, intra-cluster communication
// zeroed. The LLB mapping step consumes this type regardless of which
// clusterer produced it — the paper's multi-step scheduling method (§1).
package cluster

import (
	"fmt"
	"math"

	"flb/internal/graph"
	"flb/internal/pq"
)

// Clustering is the result of a clustering step.
type Clustering struct {
	// G is the clustered graph.
	G *graph.Graph
	// Cluster maps each task to its cluster index in [0, len(Clusters)).
	Cluster []int
	// Clusters lists, per cluster, its tasks in execution order.
	Clusters [][]int
	// Start and Finish give each task's times on the unbounded clustered
	// machine (intra-cluster communication zeroed).
	Start, Finish []float64
}

// Makespan returns the parallel completion time of the clustered schedule
// on the unbounded machine.
func (c *Clustering) Makespan() float64 {
	var m float64
	for _, f := range c.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// Validate checks the clustering's internal schedule: cluster exclusivity
// and precedence with intra-cluster communication zeroed, plus partition
// consistency (every task in exactly the cluster its index claims).
func (c *Clustering) Validate() error {
	g := c.G
	seen := make([]int, g.NumTasks())
	for ci, tasks := range c.Clusters {
		end := math.Inf(-1)
		for _, t := range tasks {
			seen[t]++
			if c.Cluster[t] != ci {
				return fmt.Errorf("cluster: task %d listed in cluster %d but mapped to %d", t, ci, c.Cluster[t])
			}
			if c.Start[t] < end-1e-9 {
				return fmt.Errorf("cluster: task %d overlaps its predecessor in cluster %d", t, ci)
			}
			end = c.Finish[t]
		}
	}
	for t, n := range seen {
		if n != 1 {
			return fmt.Errorf("cluster: task %d appears in %d cluster lists", t, n)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		a := c.Finish[e.From]
		if c.Cluster[e.From] != c.Cluster[e.To] {
			a += e.Comm
		}
		if c.Start[e.To] < a-1e-9 {
			return fmt.Errorf("cluster: precedence violated on edge %d->%d", e.From, e.To)
		}
	}
	return nil
}

// FromAssignment builds a Clustering from a task->cluster assignment by
// simulating self-timed execution on the unbounded clustered machine:
// tasks are processed in ready order with larger bottom level first; each
// starts at the maximum of its cluster's availability and its message
// arrivals (intra-cluster messages free). Cluster ids may be sparse; they
// are compacted. This is the shared evaluator of the EZ and LC clusterers
// and of their merge estimates.
func FromAssignment(g *graph.Graph, assign []int) *Clustering {
	n := g.NumTasks()
	// Compact cluster ids.
	remap := map[int]int{}
	cl := make([]int, n)
	for t := 0; t < n; t++ {
		id, ok := remap[assign[t]]
		if !ok {
			id = len(remap)
			remap[assign[t]] = id
		}
		cl[t] = id
	}
	c := &Clustering{
		G:        g,
		Cluster:  cl,
		Clusters: make([][]int, len(remap)),
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
	}
	avail := make([]float64, len(remap))
	bl := g.BottomLevels()
	pendingPreds := make([]int, n)
	ready := pq.New(n)
	for t := 0; t < n; t++ {
		pendingPreds[t] = g.InDegree(t)
		if pendingPreds[t] == 0 {
			ready.Push(t, pq.Key{Primary: -bl[t]})
		}
	}
	for {
		t, _, ok := ready.Pop()
		if !ok {
			break
		}
		start := avail[cl[t]]
		for _, ei := range g.PredEdges(t) {
			e := g.Edge(int(ei))
			a := c.Finish[e.From]
			if cl[e.From] != cl[t] {
				a += e.Comm
			}
			if a > start {
				start = a
			}
		}
		c.Start[t] = start
		c.Finish[t] = start + g.Comp(t)
		avail[cl[t]] = c.Finish[t]
		c.Clusters[cl[t]] = append(c.Clusters[cl[t]], t)
		for _, ei := range g.SuccEdges(t) {
			to := g.Edge(int(ei)).To
			pendingPreds[to]--
			if pendingPreds[to] == 0 {
				ready.Push(to, pq.Key{Primary: -bl[to]})
			}
		}
	}
	return c
}
