// Package sweep is the parameter-search subsystem layered above jobs:
// a Spec names parameter axes that map onto machine-config overrides
// (plus the experiment seed), expands them into a bounded set of
// operating points by grid enumeration or seeded random sampling, runs
// every point through Options.RunPoint (the service adapter submits each
// point as a daemon job, so the shared cell store dedupes repeated
// cells across points), scores completed points with a pluggable
// objective read out of the artifact TSVs, and maintains a ranked
// frontier whose TSV rendering is byte-identical for a fixed spec and
// seed regardless of execution order, parallelism, or fleet size.
package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// DefaultMaxPoints is the hard point budget a spec gets when it does
// not set one. Expansion beyond the budget is an error, never a silent
// truncation: a sweep that would quietly drop points reads as
// "covered the space" when it did not.
const DefaultMaxPoints = 1024

// SeedParam is the reserved axis name that sweeps the experiment seed
// instead of a machine-config field.
const SeedParam = "seed"

// Axis is one swept parameter: a dotted machine-config field path
// (JSON field names, e.g. "Latencies.QPI" or "Protocol"), or the
// reserved name "seed". Values come either from an explicit list or
// from a numeric range.
type Axis struct {
	// Param is the config field path the axis sets, or "seed".
	Param string `json:"param"`
	// Values enumerates the axis points as raw JSON values (numbers,
	// strings, booleans). Grid expansion walks them in order; random
	// sampling draws from them uniformly.
	Values []json.RawMessage `json:"values,omitempty"`
	// Min/Max define a numeric range used when Values is empty. Grid
	// expansion takes Steps evenly spaced values across [Min, Max];
	// random sampling draws uniformly from the interval.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Steps is the grid resolution of a range axis (>= 1; 1 means just
	// Min). Ignored by random sampling.
	Steps int `json:"steps,omitempty"`
	// Ints rounds range values to integers (config cycle counts and
	// thread counts are integral).
	Ints bool `json:"ints,omitempty"`
}

func (a Axis) validate() error {
	if strings.TrimSpace(a.Param) == "" {
		return fmt.Errorf("sweep: axis without a param")
	}
	if len(a.Values) > 0 {
		for i, v := range a.Values {
			if !json.Valid(v) || len(v) == 0 {
				return fmt.Errorf("sweep: axis %s value %d is not valid JSON", a.Param, i)
			}
			if a.isSeed() {
				if _, err := seedValue(v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if a.Min == nil || a.Max == nil {
		return fmt.Errorf("sweep: axis %s needs values or a min/max range", a.Param)
	}
	if *a.Max < *a.Min {
		return fmt.Errorf("sweep: axis %s has max %v < min %v", a.Param, *a.Max, *a.Min)
	}
	return nil
}

func (a Axis) isSeed() bool { return strings.EqualFold(a.Param, SeedParam) }

// gridLen is how many values the axis contributes to a grid, known
// without materializing them.
func (a Axis) gridLen() (int, error) {
	if len(a.Values) > 0 {
		return len(a.Values), nil
	}
	if a.Steps <= 0 {
		return 0, fmt.Errorf("sweep: range axis %s needs steps >= 1 for grid expansion", a.Param)
	}
	return a.Steps, nil
}

// gridValues materializes the axis for grid expansion. Call it only
// once Size has bounded the grid.
func (a Axis) gridValues() []json.RawMessage {
	if len(a.Values) > 0 {
		return a.Values
	}
	steps := a.Steps
	out := make([]json.RawMessage, 0, steps)
	for i := 0; i < steps; i++ {
		v := *a.Min
		if steps > 1 {
			v += (*a.Max - *a.Min) * float64(i) / float64(steps-1)
		}
		out = append(out, numberJSON(v, a.Ints))
	}
	return out
}

// sample draws one value for random expansion.
func (a Axis) sample(rng *rand.Rand) json.RawMessage {
	if len(a.Values) > 0 {
		return a.Values[rng.Intn(len(a.Values))]
	}
	v := *a.Min + rng.Float64()*(*a.Max-*a.Min)
	return numberJSON(v, a.Ints)
}

func numberJSON(v float64, ints bool) json.RawMessage {
	if ints {
		return json.RawMessage(strconv.FormatInt(int64(v+0.5), 10))
	}
	return json.RawMessage(strconv.FormatFloat(v, 'g', -1, 64))
}

func seedValue(raw json.RawMessage) (uint64, error) {
	var s uint64
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("sweep: seed axis value %s is not an unsigned integer", raw)
	}
	return s, nil
}

// Expansion strategies.
const (
	StrategyGrid   = "grid"
	StrategyRandom = "random"
)

// Spec describes one sweep: what to run per point, how to expand the
// axes into points, how to score a point, and how deep a frontier to
// keep.
type Spec struct {
	// Name labels the sweep in listings and output filenames; optional.
	Name string `json:"name,omitempty"`
	// Artifacts lists the registry artifacts run per point; empty means
	// every artifact (matching job submission semantics).
	Artifacts []string `json:"artifacts,omitempty"`
	// Seed is the base experiment seed for every point (a "seed" axis
	// overrides it per point); nil uses the runner's default.
	Seed *uint64 `json:"seed,omitempty"`
	// Sizing is "quick" or "full" (default "full").
	Sizing string `json:"sizing,omitempty"`
	// Config holds partial machine-config overrides applied to every
	// point before its axis assignments.
	Config json.RawMessage `json:"config,omitempty"`
	// Axes are the swept parameters.
	Axes []Axis `json:"axes"`
	// Strategy is "grid" (default: full cartesian product) or "random"
	// (Samples points drawn with the SampleSeed PRNG).
	Strategy string `json:"strategy,omitempty"`
	// Samples is the point count for random sampling.
	Samples int `json:"samples,omitempty"`
	// SampleSeed seeds the random-sampling PRNG; 0 derives it from the
	// experiment seed so a fixed spec stays deterministic.
	SampleSeed uint64 `json:"sampleSeed,omitempty"`
	// MaxPoints is the hard point budget; 0 means DefaultMaxPoints.
	// Expansion past the budget is an error.
	MaxPoints int `json:"maxPoints,omitempty"`
	// Objective scores each completed point.
	Objective ObjectiveSpec `json:"objective"`
	// TopK bounds the ranked frontier; 0 keeps every scored point.
	TopK int `json:"topK,omitempty"`
}

// Budget returns the effective point budget.
func (s *Spec) Budget() int {
	if s.MaxPoints > 0 {
		return s.MaxPoints
	}
	return DefaultMaxPoints
}

// Validate checks everything that can be checked without a registry:
// axes, strategy, budget and the objective shape.
func (s *Spec) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: spec needs at least one axis")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		key := strings.ToLower(a.Param)
		if seen[key] {
			return fmt.Errorf("sweep: axis %s declared twice", a.Param)
		}
		seen[key] = true
	}
	switch s.Strategy {
	case "", StrategyGrid:
		for _, a := range s.Axes {
			if _, err := a.gridLen(); err != nil {
				return err
			}
		}
	case StrategyRandom:
		if s.Samples <= 0 {
			return fmt.Errorf("sweep: random strategy needs samples > 0")
		}
		if s.Samples > s.Budget() {
			return fmt.Errorf("sweep: samples %d exceeds the point budget %d", s.Samples, s.Budget())
		}
	default:
		return fmt.Errorf("sweep: unknown strategy %q (want %q or %q)", s.Strategy, StrategyGrid, StrategyRandom)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("sweep: maxPoints %d must be >= 0", s.MaxPoints)
	}
	if s.TopK < 0 {
		return fmt.Errorf("sweep: topK %d must be >= 0", s.TopK)
	}
	if len(s.Config) > 0 && !json.Valid(s.Config) {
		return fmt.Errorf("sweep: config overrides are not valid JSON")
	}
	return s.Objective.validate()
}

// Size returns how many points a validated spec expands to, without
// materializing any axis: the samples count, or the grid's product of
// axis lengths. A grid past the budget is an error, found before the
// product can overflow.
func (s *Spec) Size() (int, error) {
	if s.Strategy == StrategyRandom {
		return s.Samples, nil
	}
	total, budget := 1, s.Budget()
	for _, a := range s.Axes {
		n, err := a.gridLen()
		if err != nil {
			return 0, err
		}
		if n > budget/total {
			return 0, fmt.Errorf("sweep: grid expands to more than the point budget %d (use maxPoints, random sampling, or fewer axis values)", budget)
		}
		total *= n
	}
	return total, nil
}

// AxisNames returns the swept parameter names in axis order — the
// frontier TSV's parameter columns.
func (s *Spec) AxisNames() []string {
	out := make([]string, len(s.Axes))
	for i, a := range s.Axes {
		out[i] = a.Param
	}
	return out
}

// ParamValue is one axis assignment of a point.
type ParamValue struct {
	Param string `json:"param"`
	// Value is the assigned raw JSON value.
	Value json.RawMessage `json:"value"`
}

// Display renders the value for humans and TSVs: JSON strings drop
// their quotes, everything else stays as compact JSON.
func (p ParamValue) Display() string {
	var s string
	if err := json.Unmarshal(p.Value, &s); err == nil {
		return s
	}
	return string(p.Value)
}

// Point is one expanded operating point: the axis assignments resolved
// into a seed and a merged machine-config override document.
type Point struct {
	// Index is the point's position in deterministic expansion order;
	// it is the ranking tie-break, so frontiers are reproducible.
	Index int
	// Params are the axis assignments in axis order.
	Params []ParamValue
	// Seed is the experiment seed for the point.
	Seed uint64
	// Config is the merged override document submitted with the point's
	// job (spec-level overrides plus axis assignments); nil when empty.
	Config json.RawMessage
}

// Expand materializes the spec's points in deterministic order.
// defaultSeed seeds points when the spec carries no Seed field and no
// seed axis. The hard budget is enforced here, before any axis is
// materialized: a grid larger than the budget (or a samples count
// above it) fails rather than truncates.
func Expand(spec Spec, defaultSeed uint64) ([]Point, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	total, err := spec.Size()
	if err != nil {
		return nil, err
	}
	baseSeed := defaultSeed
	if spec.Seed != nil {
		baseSeed = *spec.Seed
	}
	var assignments [][]json.RawMessage
	switch spec.Strategy {
	case "", StrategyGrid:
		grids := make([][]json.RawMessage, len(spec.Axes))
		for i, a := range spec.Axes {
			grids[i] = a.gridValues()
		}
		assignments = make([][]json.RawMessage, 0, total)
		idx := make([]int, len(grids))
		for {
			row := make([]json.RawMessage, len(grids))
			for i, g := range grids {
				row[i] = g[idx[i]]
			}
			assignments = append(assignments, row)
			// Odometer: last axis fastest, first axis slowest.
			k := len(grids) - 1
			for k >= 0 {
				idx[k]++
				if idx[k] < len(grids[k]) {
					break
				}
				idx[k] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	case StrategyRandom:
		sampleSeed := spec.SampleSeed
		if sampleSeed == 0 {
			// Derive from the experiment seed so a fixed spec+seed is
			// fully deterministic without a second mandatory knob.
			sampleSeed = baseSeed ^ 0x5EE9C0DE
		}
		rng := rand.New(rand.NewSource(int64(sampleSeed)))
		assignments = make([][]json.RawMessage, 0, spec.Samples)
		for n := 0; n < spec.Samples; n++ {
			row := make([]json.RawMessage, len(spec.Axes))
			for i, a := range spec.Axes {
				row[i] = a.sample(rng)
			}
			assignments = append(assignments, row)
		}
	}

	points := make([]Point, 0, len(assignments))
	for i, row := range assignments {
		pt, err := buildPoint(spec, i, row, baseSeed)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// buildPoint merges one assignment row into a Point.
func buildPoint(spec Spec, index int, row []json.RawMessage, baseSeed uint64) (Point, error) {
	pt := Point{Index: index, Seed: baseSeed}
	overrides := map[string]any{}
	if len(spec.Config) > 0 {
		if err := json.Unmarshal(spec.Config, &overrides); err != nil {
			return pt, fmt.Errorf("sweep: config overrides: %w", err)
		}
	}
	touched := len(spec.Config) > 0
	for i, a := range spec.Axes {
		pt.Params = append(pt.Params, ParamValue{Param: a.Param, Value: row[i]})
		if a.isSeed() {
			s, err := seedValue(row[i])
			if err != nil {
				return pt, err
			}
			pt.Seed = s
			continue
		}
		if err := setPath(overrides, strings.Split(a.Param, "."), row[i]); err != nil {
			return pt, fmt.Errorf("sweep: axis %s: %w", a.Param, err)
		}
		touched = true
	}
	if touched {
		// encoding/json marshals map keys sorted, so the document — and
		// therefore the config digest — is deterministic.
		b, err := json.Marshal(overrides)
		if err != nil {
			return pt, fmt.Errorf("sweep: merge overrides: %w", err)
		}
		pt.Config = b
	}
	return pt, nil
}

// setPath writes value at the dotted path inside doc, creating nested
// objects as needed. A path segment that lands on a non-object is an
// error (the axis contradicts the spec-level overrides).
func setPath(doc map[string]any, path []string, value json.RawMessage) error {
	for _, seg := range path {
		if strings.TrimSpace(seg) == "" {
			return fmt.Errorf("empty path segment")
		}
	}
	cur := doc
	for _, seg := range path[:len(path)-1] {
		next, ok := cur[seg]
		if !ok {
			m := map[string]any{}
			cur[seg] = m
			cur = m
			continue
		}
		m, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path segment %q is not an object in the spec config", seg)
		}
		cur = m
	}
	cur[path[len(path)-1]] = value
	return nil
}
