// Package cluster models the machines the paper evaluates on — node and
// cluster specifications with presets for MareNostrum 4, MinoTauro and
// CTE-POWER9 — and provides the discrete-event simulation engine that lets
// the runtime execute the identical scheduling logic under virtual time for
// node counts this process cannot host physically.
package cluster

import (
	"fmt"
	"strings"
)

// NodeSpec describes one node's resources. Speeds are relative to the
// reference core/GPU of the perfmodel package (MareNostrum 4 Platinum core
// = 1.0, V100 = 1.0).
type NodeSpec struct {
	ID        int
	Name      string
	Cores     int
	GPUs      int
	CoreSpeed float64
	GPUSpeed  float64
}

// Spec is an ordered set of nodes forming a cluster reservation.
type Spec struct {
	Name  string
	Nodes []NodeSpec
}

// String renders a short description like "MareNostrum4[2× 48c/0g]".
func (s Spec) String() string {
	if len(s.Nodes) == 0 {
		return s.Name + "[empty]"
	}
	first := s.Nodes[0]
	uniform := true
	for _, nd := range s.Nodes[1:] {
		if nd.Cores != first.Cores || nd.GPUs != first.GPUs {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%s[%d× %dc/%dg]", s.Name, len(s.Nodes), first.Cores, first.GPUs)
	}
	var parts []string
	for _, nd := range s.Nodes {
		parts = append(parts, fmt.Sprintf("%dc/%dg", nd.Cores, nd.GPUs))
	}
	return fmt.Sprintf("%s[%s]", s.Name, strings.Join(parts, ","))
}

// Validate reports configuration errors (no nodes, non-positive cores,
// duplicate ids).
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster: %s has no nodes", s.Name)
	}
	seen := map[int]bool{}
	for _, nd := range s.Nodes {
		if nd.Cores <= 0 {
			return fmt.Errorf("cluster: node %d has %d cores", nd.ID, nd.Cores)
		}
		if nd.GPUs < 0 {
			return fmt.Errorf("cluster: node %d has negative GPUs", nd.ID)
		}
		if seen[nd.ID] {
			return fmt.Errorf("cluster: duplicate node id %d", nd.ID)
		}
		seen[nd.ID] = true
	}
	return nil
}

// MareNostrum4 returns n general-purpose nodes: 2× Intel Xeon Platinum 8160,
// 24 cores each → 48 cores per node, no GPUs (paper §5).
func MareNostrum4(n int) Spec {
	return uniform("MareNostrum4", n, 48, 0, 1.0, 1.0)
}

// MinoTauro returns n GPU nodes: 2× Xeon E5-2630 v3 8-core (16 cores) and
// 2× NVIDIA K80 (paper §5). Haswell cores are slightly slower and a K80 is
// far slower than the V100 reference.
func MinoTauro(n int) Spec {
	return uniform("MinoTauro", n, 16, 2, 0.8, 0.25)
}

// Power9 returns n CTE-POWER9 nodes: 2× POWER9 8335-GTH, 160 hardware
// threads, 4× NVIDIA V100 (paper §5).
func Power9(n int) Spec {
	return uniform("POWER9", n, 160, 4, 0.9, 1.0)
}

// Uniform builds an n-node homogeneous cluster with the given per-node
// shape; exported for tests and custom experiment setups.
func Uniform(name string, n, cores, gpus int, coreSpeed, gpuSpeed float64) Spec {
	return uniform(name, n, cores, gpus, coreSpeed, gpuSpeed)
}

func uniform(name string, n, cores, gpus int, coreSpeed, gpuSpeed float64) Spec {
	if n < 1 {
		panic(fmt.Sprintf("cluster: %s needs at least one node", name))
	}
	s := Spec{Name: name}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, NodeSpec{
			ID: i, Name: fmt.Sprintf("%s-%02d", strings.ToLower(name), i),
			Cores: cores, GPUs: gpus, CoreSpeed: coreSpeed, GPUSpeed: gpuSpeed,
		})
	}
	return s
}

// Local returns a single-node spec describing the current process as a
// "node" with the given core count, used for real (non-simulated) runs.
func Local(cores int) Spec {
	if cores < 1 {
		cores = 1
	}
	return Spec{Name: "local", Nodes: []NodeSpec{{ID: 0, Name: "local-00", Cores: cores, CoreSpeed: 1, GPUSpeed: 1}}}
}
