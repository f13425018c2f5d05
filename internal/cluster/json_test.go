package cluster

import "testing"

func TestParseSpecJSONExplicit(t *testing.T) {
	src := `{
	  "name": "hybrid",
	  "nodes": [
	    {"count": 2, "cores": 48},
	    {"count": 1, "cores": 160, "gpus": 4, "core_speed": 0.9}
	  ]
	}`
	spec, err := ParseSpecJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(spec.Nodes))
	}
	if cores, gpus := totals(spec); cores != 48*2+160 || gpus != 4 {
		t.Fatalf("totals = %d cores, %d gpus", cores, gpus)
	}
	// Defaults applied.
	if spec.Nodes[0].CoreSpeed != 1 || spec.Nodes[2].CoreSpeed != 0.9 {
		t.Fatalf("core speeds = %v, %v", spec.Nodes[0].CoreSpeed, spec.Nodes[2].CoreSpeed)
	}
	// IDs are sequential and unique.
	if spec.Nodes[2].ID != 2 {
		t.Fatalf("ids = %v", spec.Nodes)
	}
}

func TestParseSpecJSONPreset(t *testing.T) {
	spec, err := ParseSpecJSON([]byte(`{"preset": "power9", "count": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Nodes) != 2 || spec.Nodes[0].GPUs != 4 {
		t.Fatalf("preset spec = %+v", spec)
	}
}

func TestParseSpecJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"nodes": [{"count": 1, "cores": 0}]}`,
		`{"preset": "deepthought", "count": 1}`,
	}
	for _, c := range cases {
		if _, err := ParseSpecJSON([]byte(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestPresetNames(t *testing.T) {
	for _, name := range []string{"marenostrum4", "MN4", "minotauro", "Power9", "p9", "cte-power9"} {
		if _, err := Preset(name, 1); err != nil {
			t.Fatalf("Preset(%s): %v", name, err)
		}
	}
	if _, err := Preset("summit", 1); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	// Zero count floors to 1.
	spec, _ := Preset("mn4", 0)
	if len(spec.Nodes) != 1 {
		t.Fatalf("floored count = %d", len(spec.Nodes))
	}
}
