package cluster

import (
	"testing"
	"testing/quick"
	"time"
)

// totals sums cores and GPUs across a spec's nodes.
func totals(s Spec) (cores, gpus int) {
	for _, nd := range s.Nodes {
		cores += nd.Cores
		gpus += nd.GPUs
	}
	return cores, gpus
}

// Run delivers events until none remain and returns the final virtual
// time.
func (e *Engine) Run() time.Duration {
	for e.Step() {
	}
	return e.now
}

func TestPresets(t *testing.T) {
	mn := MareNostrum4(2)
	if cores, gpus := totals(mn); cores != 96 || gpus != 0 {
		t.Fatalf("MareNostrum4(2): %d cores, %d gpus", cores, gpus)
	}
	mt := MinoTauro(1)
	if mt.Nodes[0].Cores != 16 || mt.Nodes[0].GPUs != 2 {
		t.Fatalf("MinoTauro node = %+v", mt.Nodes[0])
	}
	p9 := Power9(1)
	if p9.Nodes[0].Cores != 160 || p9.Nodes[0].GPUs != 4 {
		t.Fatalf("Power9 node = %+v", p9.Nodes[0])
	}
	for _, s := range []Spec{mn, mt, p9, Local(8)} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := MareNostrum4(28)
	if got := s.String(); got != "MareNostrum4[28× 48c/0g]" {
		t.Fatalf("String = %q", got)
	}
	mixed := Spec{Name: "mix", Nodes: []NodeSpec{{ID: 0, Cores: 4}, {ID: 1, Cores: 8}}}
	if got := mixed.String(); got != "mix[4c/0g,8c/0g]" {
		t.Fatalf("mixed String = %q", got)
	}
	if (Spec{Name: "x"}).String() != "x[empty]" {
		t.Fatal("empty spec rendering")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "none"},
		{Name: "zero", Nodes: []NodeSpec{{ID: 0, Cores: 0}}},
		{Name: "neg", Nodes: []NodeSpec{{ID: 0, Cores: 4, GPUs: -1}}},
		{Name: "dup", Nodes: []NodeSpec{{ID: 0, Cores: 4}, {ID: 0, Cores: 4}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %q should be invalid", s.Name)
		}
	}
}

func TestUniformPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MareNostrum4(0)
}

func TestLocalFloor(t *testing.T) {
	if Local(0).Nodes[0].Cores != 1 {
		t.Fatal("Local should floor cores at 1")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Fatalf("final time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.executed != 3 {
		t.Fatalf("executed = %d", e.executed)
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(time.Second, func() { order = append(order, "a") })
	e.At(time.Second, func() { order = append(order, "b") })
	e.Run()
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("tie-break order = %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	var chain func()
	chain = func() {
		hits++
		if hits < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(time.Second, chain)
	end := e.Run()
	if hits != 5 || end != 5*time.Second {
		t.Fatalf("hits=%d end=%v", hits, end)
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine()
	e.After(2*time.Second, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past event")
		}
	}()
	e.At(time.Second, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().After(-time.Second, func() {})
}

func TestEngineStepEmpty(t *testing.T) {
	if NewEngine().Step() {
		t.Fatal("Step on empty engine should return false")
	}
}

// Property: with arbitrary positive delays, events always fire in
// non-decreasing time order.
func TestEngineMonotoneTimeProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []time.Duration
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, func() {
				times = append(times, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
