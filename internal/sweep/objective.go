package sweep

import (
	"fmt"
	"sort"
	"strings"

	"coherentleak/internal/experiments"
)

// ObjectiveSpec selects and parameterizes the scoring function applied
// to each completed point. The built-in "tsv" kind reads a number out
// of one artifact's assembled table — covert capacity, error rate,
// mitigation accuracy and the like are all columns of the reproduced
// figures.
type ObjectiveSpec struct {
	// Kind names the objective; "tsv", the only kind, is the default.
	Kind string `json:"kind,omitempty"`
	// Artifact is the registry artifact whose TSV is scored. Required
	// by the tsv objective; it must appear in the sweep's artifact list
	// (or the list must be empty, which runs everything).
	Artifact string `json:"artifact"`
	// Column is the TSV column the score reads.
	Column string `json:"column"`
	// Aggregate folds the filtered column into one number: max (the
	// default), min, mean, sum, first, last or count.
	Aggregate string `json:"aggregate,omitempty"`
	// Direction is "max" (default) or "min": which end of the score
	// scale ranks first in the frontier.
	Direction string `json:"direction,omitempty"`
	// Filter restricts scored rows to those whose named columns carry
	// exactly these values (e.g. {"noise": "8"}).
	Filter map[string]string `json:"filter,omitempty"`
}

func (o ObjectiveSpec) aggregate() string {
	if o.Aggregate == "" {
		return "max"
	}
	return o.Aggregate
}

// Maximize reports whether higher scores rank first.
func (o ObjectiveSpec) Maximize() bool { return o.Direction != "min" }

func (o ObjectiveSpec) validate() error {
	switch o.Direction {
	case "", "max", "min":
	default:
		return fmt.Errorf("sweep: objective direction %q (want \"max\" or \"min\")", o.Direction)
	}
	_, err := BuildObjective(o)
	return err
}

// Objective scores one completed point.
type Objective interface {
	// Describe is a one-line human summary for views and logs.
	Describe() string
	// Score computes the point's score from its results.
	Score(res PointResult) (float64, error)
}

// BuildObjective resolves a spec into a ready objective. The only kind
// is "tsv" (the default).
func BuildObjective(spec ObjectiveSpec) (Objective, error) {
	if spec.Kind != "" && spec.Kind != "tsv" {
		return nil, fmt.Errorf("sweep: unknown objective kind %q (known: tsv)", spec.Kind)
	}
	return newTSVObjective(spec)
}

// tsvObjective extracts and aggregates one TSV column.
type tsvObjective struct {
	spec ObjectiveSpec
}

func newTSVObjective(spec ObjectiveSpec) (Objective, error) {
	if strings.TrimSpace(spec.Artifact) == "" {
		return nil, fmt.Errorf("sweep: tsv objective needs an artifact")
	}
	if strings.TrimSpace(spec.Column) == "" {
		return nil, fmt.Errorf("sweep: tsv objective needs a column")
	}
	if _, err := experiments.AggregateColumn([]float64{0}, spec.aggregate()); err != nil {
		return nil, err
	}
	return &tsvObjective{spec: spec}, nil
}

func (o *tsvObjective) Describe() string {
	dir := "maximize"
	if !o.spec.Maximize() {
		dir = "minimize"
	}
	desc := fmt.Sprintf("%s %s(%s.%s)", dir, o.spec.aggregate(), o.spec.Artifact, o.spec.Column)
	if len(o.spec.Filter) > 0 {
		keys := make([]string, 0, len(o.spec.Filter))
		for k := range o.spec.Filter {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + o.spec.Filter[k]
		}
		desc += " where " + strings.Join(parts, ",")
	}
	return desc
}

func (o *tsvObjective) Score(res PointResult) (float64, error) {
	tsv, ok := res.TSV[o.spec.Artifact]
	if !ok {
		return 0, fmt.Errorf("sweep: point produced no %s table (requested artifacts must include the objective's)", o.spec.Artifact)
	}
	vals, err := experiments.TSVColumn(tsv, o.spec.Column, o.spec.Filter)
	if err != nil {
		return 0, err
	}
	score, err := experiments.AggregateColumn(vals, o.spec.aggregate())
	if err != nil {
		return 0, err
	}
	if score != score { // NaN never ranks
		return 0, fmt.Errorf("sweep: objective produced NaN")
	}
	return score, nil
}
