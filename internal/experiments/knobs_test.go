package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/covert"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
)

var knobAudit = flag.Bool("knob-audit", false,
	"perturb every machine.Config leaf, rerun the registry at quick sizing and check which artifacts move against testdata/knobs.golden (rewritten on a mismatch)")

// knobsGolden records, for every machine.Config perturbation the audit
// applies, which artifacts' quick TSVs it moves.
const knobsGolden = "testdata/knobs.golden"

// leafFields calls fn with the dotted path and index of every exported
// leaf field of t, descending into struct-typed fields.
func leafFields(t reflect.Type, prefix string, index []int, fn func(path string, index []int)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		idx := append(slices.Clone(index), i)
		if f.Type.Kind() == reflect.Struct {
			leafFields(f.Type, prefix+f.Name+".", idx, fn)
			continue
		}
		fn(prefix+f.Name, idx)
	}
}

// knobPerturbation is one audited change to a machine.Config leaf.
type knobPerturbation struct {
	knob, from, to string
	cfg            machine.Config
}

// configPerturbations derives the audit's perturbations of base, one or
// more per leaf: a number is scaled by 1.5 (a zero becomes 1, and an
// integer moves by at least 1), or by 2 where 1.5 gives a config
// Validate rejects (eight ways become twelve, which does not divide a
// power-of-two cache); a bool is flipped; the protocol and the
// replacement policy take every other registered name.
func configPerturbations(t *testing.T, base machine.Config) []knobPerturbation {
	var out []knobPerturbation
	leafFields(reflect.TypeOf(base), "", nil, func(path string, index []int) {
		with := func(set func(reflect.Value)) machine.Config {
			cfg := base
			set(reflect.ValueOf(&cfg).Elem().FieldByIndex(index))
			return cfg
		}
		cur := reflect.ValueOf(base).FieldByIndex(index)
		add := func(to any, cfg machine.Config) {
			out = append(out, knobPerturbation{knob: path, from: fmt.Sprint(cur.Interface()), to: fmt.Sprint(to), cfg: cfg})
		}
		switch cur.Kind() {
		case reflect.Bool:
			add(!cur.Bool(), with(func(v reflect.Value) { v.SetBool(!cur.Bool()) }))
		case reflect.Int, reflect.Int64:
			to := max(cur.Int()*3/2, cur.Int()+1)
			if cfg := with(func(v reflect.Value) { v.SetInt(to) }); cfg.Validate() != nil {
				to = max(cur.Int()*2, 1)
			}
			add(to, with(func(v reflect.Value) { v.SetInt(to) }))
		case reflect.Uint64:
			to := max(cur.Uint()*3/2, cur.Uint()+1)
			if cfg := with(func(v reflect.Value) { v.SetUint(to) }); cfg.Validate() != nil {
				to = max(cur.Uint()*2, 1)
			}
			add(to, with(func(v reflect.Value) { v.SetUint(to) }))
		case reflect.Float64:
			to := cur.Float() * 1.5
			if to == 0 {
				to = 1
			}
			add(to, with(func(v reflect.Value) { v.SetFloat(to) }))
		case reflect.String:
			var names []string
			switch path {
			case "Protocol":
				for _, p := range coherence.Protocols() {
					if p != base.Protocol {
						names = append(names, string(p))
					}
				}
			case "Replacement":
				for _, info := range cache.Policies() {
					if info.Policy != base.ReplacementPolicy() {
						names = append(names, info.Name)
					}
				}
			default:
				t.Fatalf("knob audit: no perturbation rule for string field %s", path)
			}
			for _, name := range names {
				add(name, with(func(v reflect.Value) { v.SetString(name) }))
			}
		default:
			t.Fatalf("knob audit: no perturbation rule for %s of kind %s", path, cur.Kind())
		}
	})
	return out
}

// quickTSVs runs the whole registry at quick sizing on cfg and returns
// each artifact's TSV, with a failed cell marked in the returned set.
func quickTSVs(t *testing.T, cfg machine.Config) (tsvs map[string][]byte, failed map[string]bool) {
	t.Helper()
	plan := registryPlan(harness.SizingQuick)
	plan.Cfg = cfg
	r := &harness.Runner{Parallel: runtime.GOMAXPROCS(0)}
	rep, err := r.Run(context.Background(), plan, Artifacts().Artifacts())
	if err != nil {
		t.Fatal(err)
	}
	tsvs, failed = map[string][]byte{}, map[string]bool{}
	for _, res := range rep.Results {
		tsvs[res.Artifact.Name] = res.TSV()
		failed[res.Artifact.Name] = res.Failed > 0
	}
	return tsvs, failed
}

// TestKnobAudit (run with -knob-audit, or `make knob-audit`) applies
// every configPerturbations change to the default machine, runs the
// registry at quick sizing, and records which artifacts' TSVs differ
// from the unperturbed run: `-` for none, `invalid` for a config
// Validate rejects, and a `!` suffix on an artifact with a failed
// cell. On a mismatch with testdata/knobs.golden it rewrites the
// golden and fails; review the diff, carry it into DESIGN.md's knob
// table and commit both.
func TestKnobAudit(t *testing.T) {
	if !*knobAudit {
		t.Skip("run with -knob-audit (make knob-audit): about 45 quick passes")
	}
	base := registryPlan(harness.SizingQuick).Cfg
	want, _ := quickTSVs(t, base)
	names := Artifacts().Names()
	var b strings.Builder
	b.WriteString("# Written by TestKnobAudit (make knob-audit): which artifacts' quick\n")
	b.WriteString("# TSVs move when one machine.Config leaf of the default machine moves.\n")
	b.WriteString("# knob\tperturbation\tmoved\n")
	for _, p := range configPerturbations(t, base) {
		var moved []string
		if err := p.cfg.Validate(); err != nil {
			moved = []string{"invalid"}
		} else {
			got, failed := quickTSVs(t, p.cfg)
			for _, name := range names {
				switch {
				case failed[name]:
					moved = append(moved, name+"!")
				case !bytes.Equal(got[name], want[name]):
					moved = append(moved, name)
				}
			}
		}
		if len(moved) == 0 {
			moved = []string{"-"}
		}
		line := fmt.Sprintf("%s\t%s -> %s\t%s", p.knob, p.from, p.to, strings.Join(moved, " "))
		t.Log(line)
		b.WriteString(line + "\n")
	}
	old, err := os.ReadFile(knobsGolden)
	if err == nil && string(old) == b.String() {
		return
	}
	if err := os.WriteFile(knobsGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s was stale and is rewritten: review `git diff`, update DESIGN.md's knob table and commit both", knobsGolden)
}

// auditedMoves reads knobs.golden into each knob's moved set: the union
// of its perturbations' entries, artifacts in registry order.
func auditedMoves(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(knobsGolden)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", knobsGolden, line)
		}
		if sets[f[0]] == nil {
			sets[f[0]] = map[string]bool{}
		}
		for _, m := range strings.Fields(f[2]) {
			sets[f[0]][m] = true
		}
	}
	order := append(Artifacts().Names(), "invalid")
	out := map[string]string{}
	for knob, set := range sets {
		var moved []string
		for _, name := range order {
			for _, m := range []string{name, name + "!"} {
				if set[m] {
					moved = append(moved, m)
				}
			}
		}
		if len(moved) == 0 {
			moved = []string{"-"}
		}
		out[knob] = strings.Join(moved, " ")
	}
	return out
}

// knobTable returns DESIGN.md's knob table rows keyed by their first
// cell (the knob, backticks trimmed), header and separator skipped.
func knobTable(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 11. Knobs")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 11. Knobs" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		if cells[0] == "knob" || strings.HasPrefix(cells[0], "---") {
			continue
		}
		if len(cells) != 4 {
			t.Fatalf("DESIGN.md knob row %q: want 4 cells (knob, class, moves, why)", line)
		}
		if _, dup := rows[cells[0]]; dup {
			t.Fatalf("DESIGN.md lists knob %s twice", cells[0])
		}
		rows[cells[0]] = cells[1:]
	}
	return rows
}

// TestKnobTable: DESIGN.md's knob table has one row for every settable
// leaf of machine.Config, covert.Params, covert.MultiBitParams, the other
// fields of covert.Channel and covert.MultiBitChannel, and noise.Config,
// and no row for anything else; each row is class a (a committed output
// depends on it) or b (only tests, benches or the cohsim CLI set it,
// with a reason); and each machine.Config row's moves cell is what
// TestKnobAudit recorded in testdata/knobs.golden, which must cover
// every leaf.
func TestKnobTable(t *testing.T) {
	want := map[string]bool{}
	leafFields(reflect.TypeOf(machine.Config{}), "machine.Config.", nil, func(path string, _ []int) { want[path] = true })
	for prefix, v := range map[string]any{
		"covert.Params.":          covert.Params{},
		"covert.MultiBitParams.":  covert.MultiBitParams{},
		"covert.Channel.":         covert.Channel{},
		"covert.MultiBitChannel.": covert.MultiBitChannel{},
		"noise.Config.":           noise.Config{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			// A channel's Config and Params are the structs listed
			// on their own.
			if f := typ.Field(i); f.IsExported() && f.Name != "Config" && f.Name != "Params" {
				want[prefix+f.Name] = true
			}
		}
	}

	rows := knobTable(t)
	for knob := range want {
		if rows[knob] == nil {
			t.Errorf("DESIGN.md's knob table has no row for %s", knob)
		}
	}
	audited := auditedMoves(t)
	for knob, cells := range rows {
		if !want[knob] {
			t.Errorf("DESIGN.md's knob table lists %s, which is not a settable field", knob)
			continue
		}
		class, moves, why := cells[0], cells[1], cells[2]
		if class != "a" && class != "b" {
			t.Errorf("%s: class %q, want a or b (a knob that moves nothing is deleted)", knob, class)
		}
		if class == "b" && why == "" {
			t.Errorf("%s: a class b knob needs a reason", knob)
		}
		if leaf, ok := strings.CutPrefix(knob, "machine.Config."); ok {
			got, ok := audited[leaf]
			switch {
			case !ok:
				t.Errorf("%s has no entry in %s: run make knob-audit", knob, knobsGolden)
			case moves != got:
				t.Errorf("%s moves %q in DESIGN.md but %q in %s", knob, moves, got, knobsGolden)
			}
		}
	}
	for leaf := range audited {
		if !want["machine.Config."+leaf] {
			t.Errorf("%s audits %s, which machine.Config no longer has: run make knob-audit", knobsGolden, leaf)
		}
	}
}
