// Package dsc implements DSC (Dominant Sequence Clustering)
// [Yang & Gerasoulis, IEEE TPDS 1994], the clustering step of the paper's
// multi-step baseline DSC-LLB (§3.3).
//
// DSC schedules for an *unbounded* number of processors: it groups highly
// communicating tasks into clusters so that zeroing intra-cluster edges
// shortens the dominant sequence (the longest tlevel+blevel path). Tasks
// become free when all their predecessors are examined and are processed
// in decreasing tlevel+blevel priority; each is merged into the
// predecessor cluster minimizing its start time, or opens a new cluster
// when no merge helps. A merge is accepted only if it does not increase
// the task's start time beyond its last message arrival time, so the
// dominant-sequence estimate never grows.
//
// This is the standard DSC without the DSRW partial-free-task refinement
// (see DESIGN.md §5); cost O((E + V) log V) as the paper states.
package dsc

import (
	"flb/internal/algo"
	"flb/internal/algo/cluster"
	"flb/internal/graph"
	"flb/internal/pq"
)

// Run clusters g and returns the clustering. The graph must be a valid
// DAG with at least one task.
func Run(g *graph.Graph) (*cluster.Clustering, error) {
	if g.NumTasks() == 0 {
		return nil, algo.ErrNoTasks
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	bl := g.BottomLevels()
	c := &cluster.Clustering{
		G:       g,
		Cluster: make([]int, n),
		Start:   make([]float64, n),
		Finish:  make([]float64, n),
	}
	for i := range c.Cluster {
		c.Cluster[i] = -1
	}
	var avail []float64 // per-cluster ready time

	rt := algo.NewReadyTracker(g)
	free := pq.New(n)
	lmt := make([]float64, n) // last message arrival (new-cluster start)
	push := func(t int) {
		lmt[t] = 0
		for _, ei := range g.PredEdges(t) {
			e := g.Edge(int(ei))
			if a := c.Finish[e.From] + e.Comm; a > lmt[t] {
				lmt[t] = a
			}
		}
		// Priority: largest tlevel+blevel first (the dominant-sequence
		// estimate through t); tie on larger blevel via Secondary.
		free.Push(t, pq.Key{Primary: -(lmt[t] + bl[t]), Secondary: -bl[t]})
	}
	for _, t := range rt.Initial() {
		push(t)
	}

	for {
		t, _, ok := free.Pop()
		if !ok {
			break
		}
		// Candidate clusters: each distinct predecessor cluster, plus a
		// fresh cluster (start = lmt[t], the no-merge fallback that
		// guarantees the start time never exceeds the unmerged arrival).
		bestCluster, bestStart := -1, lmt[t]
		tried := map[int]bool{}
		for _, ei := range g.PredEdges(t) {
			cl := c.Cluster[g.Edge(int(ei)).From]
			if tried[cl] {
				continue
			}
			tried[cl] = true
			st := avail[cl]
			for _, ej := range g.PredEdges(t) {
				e := g.Edge(int(ej))
				a := c.Finish[e.From]
				if c.Cluster[e.From] != cl {
					a += e.Comm
				}
				if a > st {
					st = a
				}
			}
			// Keep the merge minimizing the start time. On a tie, prefer
			// merging over a fresh cluster (zeroing communication costs
			// nothing and saves a processor), then the smaller cluster id.
			//flb:exact cluster ties fire only on bit-identical start times; both arise from the same max chain
			if st < bestStart || (st == bestStart && (bestCluster == -1 || cl < bestCluster)) {
				bestCluster, bestStart = cl, st
			}
		}
		if bestCluster == -1 {
			bestCluster = len(avail)
			avail = append(avail, 0)
			c.Clusters = append(c.Clusters, nil)
		}
		c.Cluster[t] = bestCluster
		c.Start[t] = bestStart
		c.Finish[t] = bestStart + g.Comp(t)
		avail[bestCluster] = c.Finish[t]
		c.Clusters[bestCluster] = append(c.Clusters[bestCluster], t)
		for _, nt := range rt.Complete(t) {
			push(nt)
		}
	}
	return c, nil
}
