package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coherentleak/internal/client"
	"coherentleak/internal/service"
	"coherentleak/internal/sweep"
)

// axisFlags collects repeatable -axis arguments.
type axisFlags []sweep.Axis

func (a *axisFlags) String() string { return fmt.Sprint(len(*a)) }

func (a *axisFlags) Set(v string) error {
	ax, err := parseAxis(v)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

// filterFlags collects repeatable -filter col=val arguments.
type filterFlags map[string]string

func (f filterFlags) String() string { return fmt.Sprint(len(f)) }

func (f filterFlags) Set(v string) error {
	col, val, ok := strings.Cut(v, "=")
	if !ok || col == "" {
		return fmt.Errorf("want col=value, got %q", v)
	}
	f[col] = val
	return nil
}

// parseAxis turns "Param=v1,v2" or "Param=min..max:steps" into an Axis.
func parseAxis(arg string) (sweep.Axis, error) {
	var ax sweep.Axis
	param, rest, ok := strings.Cut(arg, "=")
	if !ok || param == "" || rest == "" {
		return ax, fmt.Errorf("want Param=v1,v2,... or Param=min..max:steps, got %q", arg)
	}
	ax.Param = param
	if lo, hi, isRange := strings.Cut(rest, ".."); isRange && !strings.Contains(rest, ",") {
		hiPart, stepsPart, okSteps := strings.Cut(hi, ":")
		if !okSteps {
			return ax, fmt.Errorf("axis %s: range needs :steps (min..max:steps)", param)
		}
		minV, err1 := strconv.ParseFloat(lo, 64)
		maxV, err2 := strconv.ParseFloat(hiPart, 64)
		steps, err3 := strconv.Atoi(stepsPart)
		if err1 != nil || err2 != nil || err3 != nil {
			return ax, fmt.Errorf("axis %s: bad range %q", param, rest)
		}
		ax.Min, ax.Max, ax.Steps = &minV, &maxV, steps
		ax.Ints = minV == float64(int64(minV)) && maxV == float64(int64(maxV))
		return ax, nil
	}
	for _, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return ax, fmt.Errorf("axis %s: empty value", param)
		}
		if json.Valid([]byte(tok)) {
			ax.Values = append(ax.Values, json.RawMessage(tok))
		} else {
			// Bare words become JSON strings (e.g. Protocol=MESI,MESIF).
			q, _ := json.Marshal(tok)
			ax.Values = append(ax.Values, json.RawMessage(q))
		}
	}
	return ax, nil
}

// parseObjective turns "artifact:column[:aggregate[:direction]]" into a
// spec.
func parseObjective(arg string) (sweep.ObjectiveSpec, error) {
	var o sweep.ObjectiveSpec
	parts := strings.Split(arg, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" || parts[1] == "" {
		return o, fmt.Errorf("want artifact:column[:aggregate[:direction]], got %q", arg)
	}
	o.Artifact, o.Column = parts[0], parts[1]
	if len(parts) > 2 {
		o.Aggregate = parts[2]
	}
	if len(parts) > 3 {
		o.Direction = parts[3]
	}
	return o, nil
}

// sweepMain is `cohsim sweep`: it submits a parameter sweep to a cohsimd
// daemon, follows its Server-Sent Events stream (point completions,
// admission backoffs, frontier updates), and writes the final ranked
// frontier as a TSV. The frontier bytes are deterministic for a fixed
// spec + seed, no matter how the daemon scheduled the points.
//
// The sweep is specified either as a JSON file (-spec sweep.json, or
// "-spec -" for stdin) with the same schema as POST /v1/sweeps, or
// assembled from flags:
//
//	cohsim sweep -server http://localhost:8080 \
//	    -artifacts capacity -sizing quick \
//	    -axis 'Latencies.QPI=40,60,80' -axis 'seed=1..8:8' \
//	    -objective 'capacity:info_kbps:max:max' -filter noise=8 \
//	    -topk 10 -out results
//
// Each -axis is either an explicit value list ("Param=v1,v2,...") or a
// numeric range ("Param=min..max:steps"). The special param "seed"
// sweeps the experiment seed. -objective is
// "artifact:column[:aggregate[:direction]]".
//
// Against a daemon started with a keys file, -key sends the tenant's
// API key as a bearer token on every request. -timeout bounds the whole
// run, every request included.
//
// The stream reconnects with Last-Event-ID on drops (including
// slow-subscriber eviction), so progress output survives hiccups. Exit
// status is 0 only when the sweep completes with every point scored.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("cohsim sweep", flag.ExitOnError)
	var (
		server    = fs.String("server", "http://localhost:8080", "cohsimd base URL")
		key       = fs.String("key", "", "tenant API key, sent as a bearer token (daemons with a keys file)")
		specPath  = fs.String("spec", "", "sweep spec JSON file (\"-\" = stdin); overrides the spec-building flags")
		name      = fs.String("name", "", "sweep name (used in the output filename)")
		artifacts = fs.String("artifacts", "", "comma-separated artifact list (empty = all)")
		sizing    = fs.String("sizing", "quick", "quick or full")
		seed      = fs.Uint64("seed", 0, "base experiment seed (0 = daemon default; a seed axis overrides)")
		strategy  = fs.String("strategy", "", "grid (default) or random")
		samples   = fs.Int("samples", 0, "points to draw with -strategy random")
		maxPoints = fs.Int("max-points", 0, "hard point budget (0 = engine default)")
		topk      = fs.Int("topk", 0, "frontier size (0 = keep every scored point)")
		objArg    = fs.String("objective", "", "artifact:column[:aggregate[:direction]]")
		outDir    = fs.String("out", "results", "directory for the frontier TSV")
		follow    = fs.Bool("follow", true, "stream progress while the sweep runs")
		timeout   = fs.Duration("timeout", 2*time.Hour, "give up on the sweep after this long")
	)
	axes := axisFlags{}
	filter := filterFlags{}
	fs.Var(&axes, "axis", "axis values: Param=v1,v2,... or Param=min..max:steps (repeatable)")
	fs.Var(filter, "filter", "objective row filter col=value (repeatable)")
	fs.Parse(args)

	spec, err := buildSpec(*specPath, *name, *artifacts, *sizing, *seed,
		*strategy, *samples, *maxPoints, *topk, *objArg, axes, filter)
	if err != nil {
		die(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	err = runSweep(ctx, client.Client{Server: *server, Key: *key}, spec, *outDir, *follow)
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("timed out after %s: %w", *timeout, err)
	}
	if err != nil {
		die(err)
	}
}

// runSweep submits spec, follows it to its end and writes its frontier
// under outDir. A sweep that ends other than done is an error.
func runSweep(ctx context.Context, c client.Client, spec sweep.Spec, outDir string, follow bool) error {
	id, err := submit(ctx, c, spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s\n", id)
	if follow {
		if err := followEvents(ctx, c, id); err != nil {
			return err
		}
	}
	v, err := waitTerminal(ctx, c, id)
	if err != nil {
		return err
	}
	tsv, err := fetchFrontier(ctx, c, id)
	if err != nil {
		return err
	}
	stem := spec.Name
	if stem == "" {
		stem = id
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "sweep_"+stem+".tsv")
	if err := os.WriteFile(path, tsv, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s %s: frontier written to %s\n", id, v.State, path)
	if v.State != service.StateDone {
		return fmt.Errorf("sweep %s%s", v.State, suffix(v.Error))
	}
	return nil
}

func buildSpec(path, name, artifacts, sizing string, seed uint64, strategy string, samples, maxPoints, topk int, objArg string, axes axisFlags, filter filterFlags) (sweep.Spec, error) {
	var spec sweep.Spec
	if path != "" {
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return spec, err
			}
			defer f.Close()
			r = f
		}
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, fmt.Errorf("spec: %w", err)
		}
		return spec, nil
	}
	if len(axes) == 0 {
		return spec, fmt.Errorf("need -spec or at least one -axis")
	}
	if objArg == "" {
		return spec, fmt.Errorf("need -objective artifact:column[:aggregate[:direction]]")
	}
	obj, err := parseObjective(objArg)
	if err != nil {
		return spec, err
	}
	if len(filter) > 0 {
		obj.Filter = filter
	}
	spec = sweep.Spec{
		Name:      name,
		Sizing:    sizing,
		Axes:      axes,
		Strategy:  strategy,
		Samples:   samples,
		MaxPoints: maxPoints,
		TopK:      topk,
		Objective: obj,
	}
	if artifacts != "" {
		spec.Artifacts = strings.Split(artifacts, ",")
	}
	if seed != 0 {
		s := seed
		spec.Seed = &s
	}
	return spec, nil
}

func submit(ctx context.Context, c client.Client, spec sweep.Spec) (string, error) {
	var v service.SweepView
	if _, err := c.Call(ctx, http.MethodPost, "/v1/sweeps", spec, &v); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return v.ID, nil
}

// followEvents streams the sweep's SSE feed until the terminal state
// event. The client reconnects on drops; a rejection no reconnect can
// cure — a 4xx other than 429, such as a wrong key or a sweep the daemon
// no longer knows — fails at once.
func followEvents(ctx context.Context, c client.Client, id string) error {
	err := c.Stream(ctx, "/v1/sweeps/"+id+"/events", func(data []byte) bool {
		var ev service.SweepEvent
		return json.Unmarshal(data, &ev) == nil && render(ev)
	})
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return nil
}

// render prints one event and reports whether it ended the stream.
func render(ev service.SweepEvent) bool {
	switch ev.Type {
	case "state":
		fmt.Printf("state: %s%s\n", ev.State, suffix(ev.Error))
		return ev.State.Terminal()
	case "point":
		p := ev.Point
		if p == nil {
			return false
		}
		var params []string
		for _, pv := range p.Params {
			params = append(params, pv.Param+"="+pv.Value)
		}
		status := fmt.Sprintf("score=%g", p.Score)
		if !p.Scored {
			status = "FAILED " + p.Error
		}
		fmt.Printf("point %d/%d #%d [%s] %s (%s, %d/%d cells cached)\n",
			ev.Done, ev.Total, p.Index, strings.Join(params, " "), status, p.JobID, p.Cells.Cached, p.Cells.Total)
	case "backoff":
		if ev.Point != nil {
			fmt.Printf("point #%d backing off %gs (queue full)\n", ev.Point.Index, ev.Point.RetryAfterSeconds)
		}
	case "frontier":
		if len(ev.Frontier) > 0 {
			top := ev.Frontier[0]
			fmt.Printf("frontier: best point #%d score=%g (%d ranked)\n", top.Point, top.Score, len(ev.Frontier))
		}
	}
	return false
}

// waitTerminal polls the sweep view until it reaches a terminal state
// (a fallback when -follow=false or the stream misses the ending).
func waitTerminal(ctx context.Context, c client.Client, id string) (service.SweepView, error) {
	for {
		var v service.SweepView
		if _, err := c.Call(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &v); err != nil {
			return v, fmt.Errorf("status: %w", err)
		}
		if v.State.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

func fetchFrontier(ctx context.Context, c client.Client, id string) ([]byte, error) {
	var tsv []byte
	if _, err := c.Call(ctx, http.MethodGet, "/v1/sweeps/"+id+"/frontier.tsv", nil, &tsv); err != nil {
		return nil, fmt.Errorf("frontier: %w", err)
	}
	return tsv, nil
}

func suffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "cohsim sweep:", err)
	os.Exit(1)
}
