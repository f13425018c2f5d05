// Package graphdot renders task dependency graphs in Graphviz DOT format,
// reproducing the dynamic task graph PyCOMPSs emits for the application
// (paper Figure 3): numbered task nodes, data-version edge labels (d1v2,
// d3v2, ...), a synchronisation node for compss_wait_on, and a legend of
// task kinds.
package graphdot

import (
	"fmt"
	"sort"
	"strings"
)

// Node is a vertex in the task graph.
type Node struct {
	ID int
	// Kind groups nodes visually (e.g. "experiment", "visualisation",
	// "plot", "sync"); each kind gets its own shape/colour.
	Kind string
	// Label overrides the default numeric label when non-empty.
	Label string
}

// Edge is a dependency between two nodes, optionally labelled with the data
// item and version that induces it ("d3v2" in the paper's figure).
type Edge struct {
	From, To int
	Label    string
}

// Graph is a buildable task graph.
type Graph struct {
	Name  string
	nodes []Node
	edges []Edge
	seen  map[int]bool
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, seen: make(map[int]bool)}
}

// AddNode inserts a node; duplicate ids are ignored so callers can add
// defensively.
func (g *Graph) AddNode(n Node) {
	if g.seen[n.ID] {
		return
	}
	g.seen[n.ID] = true
	g.nodes = append(g.nodes, n)
}

// AddEdge inserts a dependency edge.
func (g *Graph) AddEdge(e Edge) {
	g.edges = append(g.edges, e)
}

var kindStyle = map[string]string{
	"experiment":    `shape=circle, style=filled, fillcolor=white`,
	"visualisation": `shape=circle, style=filled, fillcolor=lightblue`,
	"plot":          `shape=circle, style=filled, fillcolor=orange`,
	"sync":          `shape=octagon, style=filled, fillcolor=red, label=sync`,
}

// DOT renders the graph as Graphviz source. Output is deterministic: nodes
// sort by id and edges by (from, to, label).
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [fontsize=10];\n")

	nodes := append([]Node(nil), g.nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		style, ok := kindStyle[n.Kind]
		if !ok {
			style = "shape=box"
		}
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("%d", n.ID)
		}
		if n.Kind == "sync" {
			fmt.Fprintf(&b, "  n%d [%s];\n", n.ID, style)
		} else {
			fmt.Fprintf(&b, "  n%d [label=%q, %s];\n", n.ID, label, style)
		}
	}

	edges := append([]Edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Label < edges[j].Label
	})
	for _, e := range edges {
		if e.Label != "" {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q, fontsize=8];\n", e.From, e.To, e.Label)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		}
	}

	// Legend, as in the paper's figure caption area.
	kinds := map[string]bool{}
	for _, n := range g.nodes {
		if _, ok := kindStyle[n.Kind]; ok && n.Kind != "sync" {
			kinds[n.Kind] = true
		}
	}
	if len(kinds) > 0 {
		b.WriteString("  subgraph cluster_legend {\n    label=\"legend\";\n")
		sorted := make([]string, 0, len(kinds))
		for k := range kinds {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for i, k := range sorted {
			fmt.Fprintf(&b, "    legend%d [label=%q, %s];\n", i, "graph."+k, kindStyle[k])
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}
