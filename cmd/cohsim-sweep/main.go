// Command cohsim-sweep submits a parameter sweep to a cohsimd daemon,
// follows its Server-Sent Events stream (point completions, admission
// backoffs, frontier updates), and writes the final ranked frontier as
// a TSV. The frontier bytes are deterministic for a fixed spec + seed,
// no matter how the daemon scheduled the points.
//
// The sweep is specified either as a JSON file (-spec sweep.json, or
// "-spec -" for stdin) with the same schema as POST /v1/sweeps, or
// assembled from flags:
//
//	cohsim-sweep -server http://localhost:8080 \
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
// The stream reconnects with Last-Event-ID on drops (including
// slow-subscriber eviction), so progress output survives hiccups. Exit
// status is 0 only when the sweep completes with every point scored.
package main

import (
	"bufio"
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

	"coherentleak/internal/sweep"
	"coherentleak/internal/version"
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

func main() {
	var (
		server    = flag.String("server", "http://localhost:8080", "cohsimd base URL")
		specPath  = flag.String("spec", "", "sweep spec JSON file (\"-\" = stdin); overrides the spec-building flags")
		name      = flag.String("name", "", "sweep name (used in the output filename)")
		artifacts = flag.String("artifacts", "", "comma-separated artifact list (empty = all)")
		sizing    = flag.String("sizing", "quick", "quick or full")
		seed      = flag.Uint64("seed", 0, "base experiment seed (0 = daemon default; a seed axis overrides)")
		strategy  = flag.String("strategy", "", "grid (default) or random")
		samples   = flag.Int("samples", 0, "points to draw with -strategy random")
		maxPoints = flag.Int("max-points", 0, "hard point budget (0 = engine default)")
		topk      = flag.Int("topk", 0, "frontier size (0 = keep every scored point)")
		objArg    = flag.String("objective", "", "artifact:column[:aggregate[:direction]]")
		outDir    = flag.String("out", "results", "directory for the frontier TSV")
		follow    = flag.Bool("follow", true, "stream progress while the sweep runs")
		timeout   = flag.Duration("timeout", 2*time.Hour, "give up waiting for the sweep after this long")
		showVer   = flag.Bool("version", false, "print build identity and exit")
	)
	axes := axisFlags{}
	filter := filterFlags{}
	flag.Var(&axes, "axis", "axis values: Param=v1,v2,... or Param=min..max:steps (repeatable)")
	flag.Var(filter, "filter", "objective row filter col=value (repeatable)")
	flag.Parse()
	if *showVer {
		fmt.Println("cohsim-sweep", version.Get())
		return
	}

	spec, err := buildSpec(*specPath, *name, *artifacts, *sizing, *seed,
		*strategy, *samples, *maxPoints, *topk, *objArg, axes, filter)
	if err != nil {
		die(err)
	}

	id, err := submit(*server, spec)
	if err != nil {
		die(err)
	}
	fmt.Printf("submitted %s\n", id)

	if *follow {
		if err := followEvents(*server, id, *timeout); err != nil {
			die(err)
		}
	}
	state, errMsg, err := waitTerminal(*server, id, *timeout)
	if err != nil {
		die(err)
	}

	tsv, err := fetchFrontier(*server, id)
	if err != nil {
		die(err)
	}
	stem := spec.Name
	if stem == "" {
		stem = id
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		die(err)
	}
	path := filepath.Join(*outDir, "sweep_"+stem+".tsv")
	if err := os.WriteFile(path, tsv, 0o644); err != nil {
		die(err)
	}
	fmt.Printf("%s %s: frontier written to %s\n", id, state, path)
	if state != "done" {
		fmt.Fprintf(os.Stderr, "cohsim-sweep: sweep %s%s\n", state, suffix(errMsg))
		os.Exit(1)
	}
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

func submit(server string, spec sweep.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(server+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// sweepEvent mirrors the daemon's SweepEvent wire shape (the fields the
// CLI renders).
type sweepEvent struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"`
	State string `json:"state"`
	Error string `json:"error"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Point *struct {
		Index  int     `json:"index"`
		JobID  string  `json:"jobId"`
		Score  float64 `json:"score"`
		Scored bool    `json:"scored"`
		Error  string  `json:"error"`
		Params []struct {
			Param string `json:"param"`
			Value string `json:"value"`
		} `json:"params"`
		RetryAfterSeconds float64 `json:"retryAfterSeconds"`
		Cells             struct {
			Cached int `json:"cached"`
			Total  int `json:"total"`
		} `json:"cells"`
	} `json:"point"`
	Frontier []struct {
		Rank  int     `json:"rank"`
		Point int     `json:"point"`
		Score float64 `json:"score"`
	} `json:"frontier"`
}

// followEvents streams the sweep's SSE feed until the terminal state
// event, reconnecting with Last-Event-ID when the connection drops.
func followEvents(server, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	lastID := -1
	for time.Now().Before(deadline) {
		terminal, err := streamOnce(server, id, &lastID)
		if terminal {
			return nil
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cohsim-sweep: stream dropped (%v), reconnecting from event %d\n", err, lastID)
		}
		time.Sleep(500 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %s following %s", timeout, id)
}

func streamOnce(server, id string, lastID *int) (terminal bool, err error) {
	req, err := http.NewRequest("GET", server+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && data != "":
			var ev sweepEvent
			if err := json.Unmarshal([]byte(data), &ev); err == nil {
				*lastID = ev.Seq
				if render(ev) {
					return true, nil
				}
			}
			data = ""
		}
	}
	return false, sc.Err()
}

// render prints one event and reports whether it ended the stream.
func render(ev sweepEvent) bool {
	switch ev.Type {
	case "state":
		fmt.Printf("state: %s%s\n", ev.State, suffix(ev.Error))
		return ev.State == "done" || ev.State == "failed" || ev.State == "cancelled"
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
func waitTerminal(server, id string, timeout time.Duration) (state, errMsg string, err error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(server + "/v1/sweeps/" + id)
		if err != nil {
			return "", "", err
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if derr != nil {
			return "", "", derr
		}
		switch v.State {
		case "done", "failed", "cancelled":
			return v.State, v.Error, nil
		}
		if time.Now().After(deadline) {
			return "", "", fmt.Errorf("timed out after %s waiting for %s", timeout, id)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func fetchFrontier(server, id string) ([]byte, error) {
	resp, err := http.Get(server + "/v1/sweeps/" + id + "/frontier.tsv")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("frontier: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func suffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "cohsim-sweep:", err)
	os.Exit(1)
}
