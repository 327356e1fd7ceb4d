// Package harness is the experiment engine every paper artifact plugs
// into. An Artifact registers a name, description, TSV shape and a
// decomposition into independent Cells — one self-contained unit of
// work that builds its own simulated world and returns typed rows
// already encoded as TSV. The Runner executes cells from any number of
// artifacts on a bounded worker pool, reassembles rows in deterministic
// cell order (so parallel output is byte-identical to a serial run),
// streams per-cell progress and timing to a single summary writer, and
// hands each finished artifact to pluggable sinks (TSV files, replay
// JSON archives). A cell store (Runner.Manifest) keyed by (config
// digest, seed, sizing, artifact, cell) lets repeated invocations skip
// cells whose inputs are unchanged.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"coherentleak/internal/machine"
)

// Sizing selects the payload scale an artifact plans its cells for.
type Sizing string

const (
	// SizingFull regenerates the artifact at paper scale.
	SizingFull Sizing = "full"
	// SizingQuick uses reduced payloads for a fast pass.
	SizingQuick Sizing = "quick"
)

// Plan carries the inputs every cell derives its work from. Two runs
// with equal plans produce byte-identical artifact tables.
type Plan struct {
	// Cfg is the simulated machine every cell instantiates privately.
	Cfg machine.Config
	// Seed pins all experiment randomness.
	Seed uint64
	// Sizing selects quick or full payloads; empty means full.
	Sizing Sizing
}

// Quick reports whether the plan asks for reduced payloads.
func (p Plan) Quick() bool { return p.Sizing == SizingQuick }

// Size picks the full or quick variant of a payload knob.
func (p Plan) Size(full, quick int) int {
	if p.Quick() {
		return quick
	}
	return full
}

// ConfigDigest is a stable hash of the machine configuration, used to
// key cached cells and stamp archived results.
func (p Plan) ConfigDigest() string {
	b, err := json.Marshal(p.Cfg)
	if err != nil {
		// machine.Config is a plain value struct; Marshal cannot fail.
		panic(fmt.Sprintf("harness: marshal config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CellOutput is what one executed cell contributes to its artifact.
type CellOutput struct {
	// Rows are finished TSV rows (no trailing newline), appended to the
	// artifact table in cell order.
	Rows []string
	// Summary lines are echoed to the run's summary writer in cell
	// order once the artifact assembles, so console summaries stay
	// deterministic even under parallel execution.
	Summary []string
}

// Cell is one independently executable unit of an artifact: it shares
// nothing with other cells and builds its own simulated world.
type Cell struct {
	// Name identifies the cell within its artifact (scenario, placement,
	// sweep column, ...). Must be unique per artifact.
	Name string
	// Run produces the cell's rows and summary lines.
	Run func() (CellOutput, error)
}

// Artifact is one registered paper artifact (a table or figure).
type Artifact struct {
	// Name is the registry key, e.g. "fig8".
	Name string
	// Description is a one-line summary for listings.
	Description string
	// File is the TSV filename the artifact assembles into.
	File string
	// Header is the TSV header line (no trailing newline).
	Header string
	// Cells decomposes the artifact into independent cells for a plan.
	Cells func(p Plan) ([]Cell, error)
}

func (a *Artifact) validate() error {
	switch {
	case a == nil:
		return fmt.Errorf("harness: nil artifact")
	case a.Name == "":
		return fmt.Errorf("harness: artifact without a name")
	case a.File == "":
		return fmt.Errorf("harness: artifact %s without an output file", a.Name)
	case a.Header == "":
		return fmt.Errorf("harness: artifact %s without a TSV header", a.Name)
	case a.Cells == nil:
		return fmt.Errorf("harness: artifact %s without a cell planner", a.Name)
	}
	return nil
}

// Registry holds the known artifacts in registration order.
type Registry struct {
	order  []*Artifact
	byName map[string]*Artifact
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Artifact)}
}

// Register adds an artifact, rejecting incomplete or duplicate entries.
func (r *Registry) Register(a *Artifact) error {
	if err := a.validate(); err != nil {
		return err
	}
	if _, dup := r.byName[a.Name]; dup {
		return fmt.Errorf("harness: duplicate artifact %q", a.Name)
	}
	r.byName[a.Name] = a
	r.order = append(r.order, a)
	return nil
}

// MustRegister is Register for static registration tables.
func (r *Registry) MustRegister(a *Artifact) {
	if err := r.Register(a); err != nil {
		panic(err)
	}
}

// Artifacts returns the registered artifacts in registration order.
func (r *Registry) Artifacts() []*Artifact {
	out := make([]*Artifact, len(r.order))
	copy(out, r.order)
	return out
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	for i, a := range r.order {
		out[i] = a.Name
	}
	return out
}

// Get looks up one artifact.
func (r *Registry) Get(name string) (*Artifact, bool) {
	a, ok := r.byName[name]
	return a, ok
}

// Select resolves a requested artifact list in request order, validating
// every name (and rejecting repeats) before anything runs, so a typo in
// the last entry cannot surface after earlier artifacts already
// executed. An empty request selects all artifacts in registration
// order.
func (r *Registry) Select(names []string) ([]*Artifact, error) {
	cleaned := make([]string, 0, len(names))
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			cleaned = append(cleaned, n)
		}
	}
	if len(cleaned) == 0 {
		return r.Artifacts(), nil
	}
	var unknown []string
	seen := make(map[string]bool, len(cleaned))
	out := make([]*Artifact, 0, len(cleaned))
	for _, n := range cleaned {
		a, ok := r.byName[n]
		if !ok {
			unknown = append(unknown, n)
			continue
		}
		if seen[n] {
			return nil, fmt.Errorf("harness: artifact %q requested twice", n)
		}
		seen[n] = true
		out = append(out, a)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("harness: unknown artifact(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(r.Names(), ", "))
	}
	return out, nil
}
