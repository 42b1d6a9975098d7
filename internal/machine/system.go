package machine

import "fmt"

// System is the hardware inventory of the Cluster-Booster machine: a pool
// of Cluster nodes and a pool of Booster nodes joined by the fabric into one
// system. The DEEP-ER prototype is New(16, 8).
type System struct {
	pools map[Module][]*Node
	nodes []*Node // all nodes, indexed by global ID
}

// New builds a system with the given Cluster and Booster node counts, using
// the DEEP-ER node specifications. Cluster nodes take the lower global IDs.
func New(clusterNodes, boosterNodes int) *System {
	if clusterNodes < 0 || boosterNodes < 0 {
		panic("machine: negative node count")
	}
	s := &System{pools: map[Module][]*Node{}}
	s.add(Cluster, ClusterNode(), clusterNodes)
	s.add(Booster, BoosterNode(), boosterNodes)
	return s
}

// add appends count nodes of one module, numbering them after the existing
// nodes.
func (s *System) add(m Module, spec NodeSpec, count int) {
	for i := 0; i < count; i++ {
		n := &Node{ID: len(s.nodes), Index: i, Module: m, Spec: spec}
		s.pools[m] = append(s.pools[m], n)
		s.nodes = append(s.nodes, n)
	}
}

// Prototype builds the DEEP-ER prototype: 16 Cluster + 8 Booster nodes.
func Prototype() *System { return New(16, 8) }

// Nodes returns all nodes in global-ID order.
func (s *System) Nodes() []*Node { return s.nodes }

// Module returns the nodes of one module (nil if the module is absent).
func (s *System) Module(m Module) []*Node { return s.pools[m] }

// NodeCount returns the number of nodes in a module.
func (s *System) NodeCount(m Module) int { return len(s.pools[m]) }

// Node returns the node with the given global ID.
func (s *System) Node(id int) *Node {
	if id < 0 || id >= len(s.nodes) {
		panic(fmt.Sprintf("machine: node id %d out of range [0,%d)", id, len(s.nodes)))
	}
	return s.nodes[id]
}

// TotalPeakTFlops sums nominal peak performance over a module, matching the
// "Peak performance" row of Table I.
func (s *System) TotalPeakTFlops(m Module) float64 {
	var sum float64
	for _, n := range s.Module(m) {
		sum += n.Spec.PeakTFlops
	}
	return sum
}
