package runtime

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// Policy selects the order in which ready tasks are considered and how nodes
// are chosen, the design axis the scheduler ablation (`experiments -fig
// sched`, cmd/experiments) measures.
type Policy int

// Scheduling policies.
const (
	// PolicyFIFO dispatches ready tasks in submission order (COMPSs
	// default ready-queue behaviour).
	PolicyFIFO Policy = iota
	// PolicyPriority dispatches Priority-flagged tasks first, then FIFO
	// (the priority=True hint).
	PolicyPriority
	// PolicyLIFO dispatches the most recently submitted ready task first.
	PolicyLIFO
	// PolicyLocality behaves like FIFO for ordering but prefers placing a
	// task on the node where its largest input was produced, minimising
	// transfers when no parallel filesystem is assumed.
	PolicyLocality
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyPriority:
		return "priority"
	case PolicyLIFO:
		return "lifo"
	case PolicyLocality:
		return "locality"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a command-line name into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo", "":
		return PolicyFIFO, nil
	case "priority":
		return PolicyPriority, nil
	case "lifo":
		return PolicyLIFO, nil
	case "locality":
		return PolicyLocality, nil
	default:
		return 0, fmt.Errorf("runtime: unknown policy %q (want fifo, priority, lifo or locality)", s)
	}
}

// nodeState tracks one node's capacity with core-level granularity so the
// runtime can grant explicit core indices — the CPU-affinity enforcement
// the paper demonstrates in Figure 4.
type nodeState struct {
	spec      cluster.NodeSpec
	coreBusy  []bool
	gpuBusy   []bool
	freeCores int
	freeGPUs  int
	down      bool
	// running counts invocations currently placed here.
	running int
}

func newNodeState(spec cluster.NodeSpec) *nodeState {
	return &nodeState{
		spec:      spec,
		coreBusy:  make([]bool, spec.Cores),
		gpuBusy:   make([]bool, spec.GPUs),
		freeCores: spec.Cores,
		freeGPUs:  spec.GPUs,
	}
}

// fits reports whether the node currently has capacity for c.
func (n *nodeState) fits(c Constraint) bool {
	return !n.down && n.freeCores >= c.Cores && n.freeGPUs >= c.GPUs
}

// capacityFor reports whether the node could EVER satisfy c when idle.
func (n *nodeState) capacityFor(c Constraint) bool {
	return !n.down && n.spec.Cores >= c.Cores && n.spec.GPUs >= c.GPUs
}

// allocate grants the lowest-indexed free cores and GPUs. Callers must have
// checked fits.
func (n *nodeState) allocate(c Constraint) (coreIDs, gpuIDs []int) {
	for i := 0; i < len(n.coreBusy) && len(coreIDs) < c.Cores; i++ {
		if !n.coreBusy[i] {
			n.coreBusy[i] = true
			coreIDs = append(coreIDs, i)
		}
	}
	for i := 0; i < len(n.gpuBusy) && len(gpuIDs) < c.GPUs; i++ {
		if !n.gpuBusy[i] {
			n.gpuBusy[i] = true
			gpuIDs = append(gpuIDs, i)
		}
	}
	if len(coreIDs) != c.Cores || len(gpuIDs) != c.GPUs {
		panic(fmt.Sprintf("runtime: allocate on node %d without capacity (%d/%d cores, %d/%d gpus)",
			n.spec.ID, len(coreIDs), c.Cores, len(gpuIDs), c.GPUs))
	}
	n.freeCores -= c.Cores
	n.freeGPUs -= c.GPUs
	n.running++
	obsBusyCores.Add(float64(c.Cores))
	return coreIDs, gpuIDs
}

// release returns previously allocated resources.
func (n *nodeState) release(coreIDs, gpuIDs []int) {
	for _, i := range coreIDs {
		if !n.coreBusy[i] {
			panic(fmt.Sprintf("runtime: double release of core %d on node %d", i, n.spec.ID))
		}
		n.coreBusy[i] = false
	}
	for _, i := range gpuIDs {
		if !n.gpuBusy[i] {
			panic(fmt.Sprintf("runtime: double release of gpu %d on node %d", i, n.spec.ID))
		}
		n.gpuBusy[i] = false
	}
	n.freeCores += len(coreIDs)
	n.freeGPUs += len(gpuIDs)
	n.running--
	obsBusyCores.Add(-float64(len(coreIDs)))
}

// orderReady returns the indices of rt.ready in dispatch order for the
// configured policy. Must be called with rt.mu held.
func (rt *Runtime) orderReady() []int {
	idx := make([]int, len(rt.ready))
	for i := range idx {
		idx[i] = i
	}
	switch rt.opts.Policy {
	case PolicyLIFO:
		sort.SliceStable(idx, func(a, b int) bool {
			return rt.ready[idx[a]].id > rt.ready[idx[b]].id
		})
	case PolicyPriority:
		sort.SliceStable(idx, func(a, b int) bool {
			pa, pb := rt.ready[idx[a]].def.Priority, rt.ready[idx[b]].def.Priority
			if pa != pb {
				return pa
			}
			return rt.ready[idx[a]].id < rt.ready[idx[b]].id
		})
	default: // FIFO and Locality order by submission id.
		sort.SliceStable(idx, func(a, b int) bool {
			return rt.ready[idx[a]].id < rt.ready[idx[b]].id
		})
	}
	return idx
}

// pickNodes selects the node set for inv (one node for ordinary tasks,
// Constraint.Nodes distinct nodes for @multinode tasks), honouring pinning,
// exclusions and the locality preference. Returns nil if the full set does
// not fit right now.
func (rt *Runtime) pickNodes(inv *invocation) []*nodeState {
	c := inv.def.Constraint
	var candidates []*nodeState
	for _, n := range rt.nodes {
		if inv.excludeNode[n.spec.ID] {
			continue
		}
		if n.fits(c) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) < c.Nodes {
		// Pinned-and-busy single-node tasks wait for their node unless it
		// has gone down.
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].spec.ID < candidates[j].spec.ID })

	// Pin handling: the primary must be the pinned node while it is alive.
	if inv.pinNode >= 0 {
		pinned := rt.nodeByID(inv.pinNode)
		if pinned != nil && !pinned.down {
			if !pinned.fits(c) {
				return nil // wait for the pinned node to free up
			}
			set := []*nodeState{pinned}
			for _, n := range candidates {
				if len(set) == c.Nodes {
					break
				}
				if n != pinned {
					set = append(set, n)
				}
			}
			if len(set) < c.Nodes {
				return nil
			}
			return set
		}
		// Pinned node is gone: fall through to free placement.
	}

	// Locality: move the home node to the front when it is a candidate.
	if rt.opts.Policy == PolicyLocality {
		if home := rt.localityHome(inv); home >= 0 {
			for i, n := range candidates {
				if n.spec.ID == home {
					candidates[0], candidates[i] = candidates[i], candidates[0]
					break
				}
			}
		}
	}
	return candidates[:c.Nodes]
}

// localityHome returns the node that produced the invocation's (largest)
// future input, or -1.
func (rt *Runtime) localityHome(inv *invocation) int {
	home := -1
	for _, a := range inv.args {
		if f, ok := futureArg(a); ok && f.resolved && f.producedOn >= 0 {
			home = f.producedOn
		}
	}
	return home
}

// hasAlternative reports whether a placement avoiding the given node could
// run inv (for multi-node tasks: enough other capable nodes exist).
func (rt *Runtime) hasAlternative(inv *invocation, avoid int) bool {
	capable := 0
	for _, n := range rt.nodes {
		if n.spec.ID == avoid || inv.excludeNode[n.spec.ID] {
			continue
		}
		if n.capacityFor(inv.def.Constraint) {
			capable++
		}
	}
	return capable >= inv.def.Constraint.Nodes
}

// schedulable reports whether enough non-down nodes could ever run inv.
func (rt *Runtime) schedulable(inv *invocation) bool {
	capable := 0
	for _, n := range rt.nodes {
		if inv.excludeNode[n.spec.ID] {
			continue
		}
		if n.capacityFor(inv.def.Constraint) {
			capable++
		}
	}
	return capable >= inv.def.Constraint.Nodes
}

func futureArg(a interface{}) (*Future, bool) {
	switch v := a.(type) {
	case *Future:
		return v, true
	case InOut:
		return v.Future, true
	default:
		return nil, false
	}
}
