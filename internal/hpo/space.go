// Package hpo implements the paper's contribution — hyperparameter
// optimisation structured as independent runtime tasks — together with the
// "library that puts together all key algorithms in HPO" promised as future
// work (§7): grid search, random search, Bayesian optimisation (GP + expected
// improvement), the Tree-structured Parzen Estimator and
// Hyperband/successive halving, all sharing one search-space definition
// loaded from the paper's JSON config format (Listing 1).
package hpo

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Param describes one hyperparameter axis.
type Param interface {
	// Name returns the parameter name (JSON key).
	Name() string
	// GridValues enumerates the values grid search iterates.
	GridValues() []interface{}
	// Sample draws a random value.
	Sample(rng *tensor.RNG) interface{}
	// Encode maps a value into [0, 1] for model-based optimisers.
	Encode(v interface{}) float64
	// DecodeNearest maps a point in [0, 1] back to a legal value.
	DecodeNearest(x float64) interface{}
}

// Categorical is an explicit value list — the only kind the paper's Listing 1
// uses (e.g. "optimizer": ["Adam", "SGD", "RMSprop"]).
type Categorical struct {
	Key    string
	Values []interface{}
}

// Name implements Param.
func (c Categorical) Name() string { return c.Key }

// GridValues implements Param.
func (c Categorical) GridValues() []interface{} { return c.Values }

// Sample implements Param.
func (c Categorical) Sample(rng *tensor.RNG) interface{} {
	return c.Values[rng.Intn(len(c.Values))]
}

// Encode implements Param.
func (c Categorical) Encode(v interface{}) float64 {
	if len(c.Values) <= 1 {
		return 0
	}
	for i, cand := range c.Values {
		if valueEqual(cand, v) {
			return float64(i) / float64(len(c.Values)-1)
		}
	}
	return 0
}

// DecodeNearest implements Param.
func (c Categorical) DecodeNearest(x float64) interface{} {
	if len(c.Values) == 1 {
		return c.Values[0]
	}
	i := int(math.Round(x * float64(len(c.Values)-1)))
	if i < 0 {
		i = 0
	}
	if i >= len(c.Values) {
		i = len(c.Values) - 1
	}
	return c.Values[i]
}

// IntRange is an integer interval [Min, Max] with an optional grid Step.
type IntRange struct {
	Key      string
	Min, Max int
	Step     int // grid stride; default 1
}

// Name implements Param.
func (p IntRange) Name() string { return p.Key }

// GridValues implements Param.
func (p IntRange) GridValues() []interface{} {
	step := p.Step
	if step <= 0 {
		step = 1
	}
	var out []interface{}
	for v := p.Min; v <= p.Max; v += step {
		out = append(out, v)
	}
	return out
}

// Sample implements Param.
func (p IntRange) Sample(rng *tensor.RNG) interface{} {
	return p.Min + rng.Intn(p.Max-p.Min+1)
}

// Encode implements Param.
func (p IntRange) Encode(v interface{}) float64 {
	if p.Max == p.Min {
		return 0
	}
	return (asFloat(v) - float64(p.Min)) / float64(p.Max-p.Min)
}

// DecodeNearest implements Param.
func (p IntRange) DecodeNearest(x float64) interface{} {
	v := int(math.Round(float64(p.Min) + x*float64(p.Max-p.Min)))
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}

// FloatRange is a continuous interval, optionally log-scaled (the natural
// choice for learning rates).
type FloatRange struct {
	Key        string
	Min, Max   float64
	Log        bool
	GridPoints int // number of grid samples; default 4
}

// Name implements Param.
func (p FloatRange) Name() string { return p.Key }

// GridValues implements Param.
func (p FloatRange) GridValues() []interface{} {
	n := p.GridPoints
	if n <= 1 {
		n = 4
	}
	out := make([]interface{}, n)
	for i := 0; i < n; i++ {
		out[i] = p.DecodeNearest(float64(i) / float64(n-1))
	}
	return out
}

// Sample implements Param.
func (p FloatRange) Sample(rng *tensor.RNG) interface{} {
	return p.DecodeNearest(rng.Float64())
}

// Encode implements Param.
func (p FloatRange) Encode(v interface{}) float64 {
	f := asFloat(v)
	if p.Log {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		if hi == lo {
			return 0
		}
		return (math.Log(f) - lo) / (hi - lo)
	}
	if p.Max == p.Min {
		return 0
	}
	return (f - p.Min) / (p.Max - p.Min)
}

// DecodeNearest implements Param.
func (p FloatRange) DecodeNearest(x float64) interface{} {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	if p.Log {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		return math.Exp(lo + x*(hi-lo))
	}
	return p.Min + x*(p.Max-p.Min)
}

// Space is an ordered set of parameters.
type Space struct {
	Params []Param
}

// Size returns the grid cardinality (product of axis sizes).
func (s *Space) Size() int {
	n := 1
	for _, p := range s.Params {
		n *= len(p.GridValues())
	}
	return n
}

// Sample draws one random config.
func (s *Space) Sample(rng *tensor.RNG) Config {
	cfg := Config{}
	for _, p := range s.Params {
		cfg[p.Name()] = p.Sample(rng)
	}
	return cfg
}

// Encode maps a config to the unit hypercube in parameter order.
func (s *Space) Encode(cfg Config) []float64 {
	out := make([]float64, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Encode(cfg[p.Name()])
	}
	return out
}

// Decode maps a unit-hypercube point back to a legal config.
func (s *Space) Decode(x []float64) Config {
	cfg := Config{}
	for i, p := range s.Params {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		cfg[p.Name()] = p.DecodeNearest(v)
	}
	return cfg
}

// ParseSpaceJSON loads a search space from the paper's config format: each
// key maps either to a plain JSON array (categorical, Listing 1) or to an
// object {"type": "int"|"float", "min": ..., "max": ..., "log": bool,
// "step": int}. Keys are sorted for deterministic parameter order.
func ParseSpaceJSON(data []byte) (*Space, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("hpo: parsing space JSON: %w", err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	s := &Space{}
	for _, k := range keys {
		p, err := parseParam(k, raw[k])
		if err != nil {
			return nil, err
		}
		s.Params = append(s.Params, p)
	}
	if len(s.Params) == 0 {
		return nil, fmt.Errorf("hpo: empty search space")
	}
	return s, nil
}

func parseParam(key string, raw json.RawMessage) (Param, error) {
	// Try a plain array first: categorical.
	var arr []interface{}
	if err := json.Unmarshal(raw, &arr); err == nil {
		if len(arr) == 0 {
			return nil, fmt.Errorf("hpo: parameter %q has no values", key)
		}
		return Categorical{Key: key, Values: normaliseJSONValues(arr)}, nil
	}
	var spec struct {
		Type string  `json:"type"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
		Log  bool    `json:"log"`
		Step int     `json:"step"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("hpo: parameter %q: %w", key, err)
	}
	if spec.Max < spec.Min {
		return nil, fmt.Errorf("hpo: parameter %q: max %v < min %v", key, spec.Max, spec.Min)
	}
	switch spec.Type {
	case "int":
		return IntRange{Key: key, Min: int(spec.Min), Max: int(spec.Max), Step: spec.Step}, nil
	case "float":
		if spec.Log && spec.Min <= 0 {
			return nil, fmt.Errorf("hpo: parameter %q: log scale requires min > 0", key)
		}
		return FloatRange{Key: key, Min: spec.Min, Max: spec.Max, Log: spec.Log}, nil
	default:
		return nil, fmt.Errorf("hpo: parameter %q: unknown type %q", key, spec.Type)
	}
}

// normaliseJSONValues converts whole-number float64 JSON values to int so
// configs carry natural types ("num_epochs": [20, 50, 100] → ints).
func normaliseJSONValues(arr []interface{}) []interface{} {
	out := make([]interface{}, len(arr))
	for i, v := range arr {
		if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e15 {
			out[i] = int(f)
			continue
		}
		out[i] = v
	}
	return out
}

func valueEqual(a, b interface{}) bool {
	if a == b {
		return true
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	return aok && bok && af == bf
}

func toFloat(v interface{}) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}

func asFloat(v interface{}) float64 {
	f, _ := toFloat(v)
	return f
}
