package fault

import "fmt"

// MigrateRepairer is the cheap repair strategy: tasks planned on
// surviving processors stay exactly where and in the order they were,
// and each stranded task (planned on a dead processor) migrates to the
// survivor finishing it earliest — the least accumulated work on
// homogeneous machines, work plus w/speed on uniformly related ones — in
// the current execution order. It is O(todo · P), allocation-free in
// steady state, and is the fallback flb.Execute under WithContext
// degrades to when the deadline leaves no room for a full FLB reschedule.
type MigrateRepairer struct {
	load []float64 // accumulated work per processor, grown monotonically
}

// Repair implements Repairer.
func (m *MigrateRepairer) Repair(req *Request) error {
	p := req.Sys.P
	if cap(m.load) >= p {
		m.load = m.load[:p]
	} else {
		m.load = make([]float64, p)
	}
	for q := 0; q < p; q++ {
		if req.Alive[q] {
			m.load[q] = req.Floor[q]
		} else {
			m.load[q] = 0
		}
	}
	// With fewer than two distinct speeds, exec time is uniform over the
	// survivors, so "finishes the stranded task earliest" is "least
	// accumulated work" — the comparison stays the seed's raw load
	// comparison (adding a common w to both sides could collapse a strict
	// float64 inequality and silently change the pick).
	het := req.Sys.Heterogeneous()
	for _, t := range req.Todo {
		q := req.Proc[t]
		if q < 0 || q >= p || !req.Alive[q] {
			// A stranded task goes to the survivor finishing it earliest:
			// accumulated load plus the task's execution time there.
			best := -1
			for c := 0; c < p; c++ {
				if !req.Alive[c] {
					continue
				}
				if best < 0 {
					best = c
					continue
				}
				if het {
					if m.load[c]+req.Sys.ExecTime(req.G.Comp(t), c) < m.load[best]+req.Sys.ExecTime(req.G.Comp(t), best) {
						best = c
					}
				} else if m.load[c] < m.load[best] {
					best = c
				}
			}
			if best < 0 {
				return fmt.Errorf("fault: migrate repair with no surviving processors")
			}
			q = best
		}
		m.load[q] += req.Sys.ExecTime(req.G.Comp(t), q)
		req.Assign(t, q)
	}
	return nil
}
