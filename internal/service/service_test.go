package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/service"
	"coherentleak/internal/store"
)

// newTestServer starts a Service behind httptest. Cleanup drains the
// service first (so SSE handlers exit) and then closes the listener.
func newTestServer(t *testing.T, opts service.Options) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		ts.Close()
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, service.View, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v, resp.Header
}

func getJob(t *testing.T, ts *httptest.Server, id string) service.View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches one of the wanted states,
// failing fast if it lands in an unexpected terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...service.State) service.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want one of %v", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for job %s to reach %v (now %s)", id, want, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// blockingRegistry registers "block": cells that wait on release, plus
// "echo": instant deterministic cells.
func blockingRegistry(cells int, release <-chan struct{}) *harness.Registry {
	return signallingRegistry(cells, release, nil)
}

// signallingRegistry is blockingRegistry whose block cells also send on
// started (when non-nil, buffered for every cell) as they begin to run,
// so a test can wait until a job is really executing a cell.
func signallingRegistry(cells int, release <-chan struct{}, started chan<- struct{}) *harness.Registry {
	reg := harness.NewRegistry()
	reg.MustRegister(&harness.Artifact{
		Name: "block", Description: "cells block until released", File: "block.tsv", Header: "cell\tv",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			out := make([]harness.Cell, cells)
			for i := range out {
				out[i] = harness.Cell{Name: fmt.Sprintf("c%d", i), Run: func() (harness.CellOutput, error) {
					if started != nil {
						started <- struct{}{}
					}
					<-release
					return harness.CellOutput{Rows: []string{fmt.Sprintf("c%d\t%d", i, i)}}, nil
				}}
			}
			return out, nil
		},
	})
	reg.MustRegister(&harness.Artifact{
		Name: "echo", Description: "instant cells", File: "echo.tsv", Header: "cell\tv",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			out := make([]harness.Cell, 3)
			for i := range out {
				out[i] = harness.Cell{Name: fmt.Sprintf("e%d", i), Run: func() (harness.CellOutput, error) {
					time.Sleep(2 * time.Millisecond)
					return harness.CellOutput{Rows: []string{fmt.Sprintf("e%d\t%d", i, i*i)}}, nil
				}}
			}
			return out, nil
		},
	})
	return reg
}

// TestJobLifecycleCachedRerunMatchesCLI is the PR's end-to-end
// acceptance: submit the quick table1 job twice over HTTP; the second
// is served entirely from the shared manifest cache, and both TSV
// downloads are byte-identical to what cmd/experiments writes for the
// same plan.
func TestJobLifecycleCachedRerunMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, service.Options{
		Registry:    experiments.Artifacts(),
		DefaultSeed: experiments.DefaultSeed,
	})

	// What cmd/experiments would write: the same Runner, same plan,
	// same TSV renderer the TSVSink persists.
	arts, err := experiments.Artifacts().Select([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	cliRunner := &harness.Runner{Parallel: 2}
	cliRep, err := cliRunner.Run(context.Background(), harness.Plan{
		Cfg:    machine.DefaultConfig(),
		Seed:   experiments.DefaultSeed,
		Sizing: harness.SizingQuick,
	}, arts)
	if err != nil {
		t.Fatal(err)
	}
	wantTSV := cliRep.Results[0].TSV()

	body := `{"artifacts":["table1"],"sizing":"quick"}`
	status, v1, _ := postJob(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	done1 := waitState(t, ts, v1.ID, service.StateDone)
	if done1.Cells.Executed != done1.Cells.Total || done1.Cells.Cached != 0 {
		t.Fatalf("first run should execute all cells: %+v", done1.Cells)
	}

	status, v2, _ := postJob(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("second submit status = %d", status)
	}
	done2 := waitState(t, ts, v2.ID, service.StateDone)
	if done2.Cells.Cached != done2.Cells.Total || done2.Cells.Executed != 0 {
		t.Fatalf("second run should be fully cached: %+v", done2.Cells)
	}

	code1, tsv1 := fetch(t, ts, "/v1/jobs/"+v1.ID+"/artifacts/table1.tsv")
	code2, tsv2 := fetch(t, ts, "/v1/jobs/"+v2.ID+"/artifacts/table1.tsv")
	if code1 != 200 || code2 != 200 {
		t.Fatalf("download status = %d, %d", code1, code2)
	}
	if !bytes.Equal(tsv1, tsv2) {
		t.Fatal("cached rerun TSV differs from cold run")
	}
	if !bytes.Equal(tsv1, wantTSV) {
		t.Fatalf("service TSV differs from cmd/experiments output:\n--- service ---\n%s--- cli ---\n%s", tsv1, wantTSV)
	}

	// The replay JSON download parses and carries provenance.
	code, js := fetch(t, ts, "/v1/jobs/"+v2.ID+"/artifacts/table1.json")
	if code != 200 {
		t.Fatalf("json download status = %d", code)
	}
	var rec struct {
		Artifact string `json:"artifact"`
		Sizing   string `json:"sizing"`
		Cells    []struct {
			Cached bool `json:"cached"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(js, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Artifact != "table1" || rec.Sizing != "quick" || len(rec.Cells) == 0 || !rec.Cells[0].Cached {
		t.Fatalf("replay record wrong: %+v", rec)
	}
}

// TestArtifactListing pins the registry endpoint shape.
func TestArtifactListing(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Registry: experiments.Artifacts()})
	code, body := fetch(t, ts, "/v1/artifacts")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var out struct {
		Artifacts []struct {
			Name       string `json:"name"`
			File       string `json:"file"`
			QuickCells int    `json:"quickCells"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Artifacts) != 14 {
		t.Fatalf("artifact count = %d, want 14", len(out.Artifacts))
	}
	byName := map[string]int{}
	for _, a := range out.Artifacts {
		byName[a.Name] = a.QuickCells
	}
	if byName["fig2"] < 4 || byName["table1"] != 1 {
		t.Fatalf("cell counts wrong: %v", byName)
	}
}

// TestSSEStreamsProgress subscribes while the job runs and checks the
// stream carries per-cell events and ends on the terminal state event.
func TestSSEStreamsProgress(t *testing.T) {
	release := make(chan struct{})
	close(release) // echo doesn't need the gate
	_, ts := newTestServer(t, service.Options{Registry: blockingRegistry(2, release), CellParallel: 1})

	status, v, _ := postJob(t, ts, `{"artifacts":["echo"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var cellEvents, stateEvents int
	var sawTerminal bool
	scanner := bufio.NewScanner(resp.Body)
	var event, data string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "": // dispatch
			switch event {
			case "cell":
				cellEvents++
			case "state":
				stateEvents++
				var ev service.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatal(err)
				}
				if ev.State.Terminal() {
					sawTerminal = true
					if ev.State != service.StateDone {
						t.Fatalf("terminal state = %s (%s)", ev.State, ev.Error)
					}
				}
			}
		}
	}
	// The server closes the stream after the terminal event, so Scan
	// terminating at all means the lifecycle completed.
	if cellEvents != 3 {
		t.Fatalf("cell events = %d, want 3", cellEvents)
	}
	if stateEvents < 2 || !sawTerminal {
		t.Fatalf("state events = %d, terminal seen = %v", stateEvents, sawTerminal)
	}
}

// TestQueueFullReturns429 fills the bounded queue and checks admission
// control: 429, a Retry-After hint, and a rejection metric.
func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	svc, ts := newTestServer(t, service.Options{
		Registry:     blockingRegistry(1, release),
		QueueDepth:   1,
		Executors:    1,
		CellParallel: 1,
	})

	// First job occupies the executor, second fills the 1-deep queue.
	status, v1, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("first submit = %d", status)
	}
	waitState(t, ts, v1.ID, service.StateRunning)
	status, v2, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("second submit = %d", status)
	}

	status, _, hdr := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", status)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	waitState(t, ts, v1.ID, service.StateDone)
	waitState(t, ts, v2.ID, service.StateDone)

	code, metrics := fetch(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"cohsimd_jobs_rejected_total 1",
		`cohsimd_jobs_finished_total{state="done"} 2`,
		`cohsimd_cell_seconds_count{artifact="block"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	_ = svc
}

// TestCancelMidRunAndWhileQueued covers both cancellation paths. The
// mid-run cancel waits until a cell has started: a job turns "running"
// before its Runner hands out any cell, and a cancel in that window
// would stop the job before any cell could report.
func TestCancelMidRunAndWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	_, ts := newTestServer(t, service.Options{
		Registry:     signallingRegistry(4, release, started),
		QueueDepth:   4,
		Executors:    1,
		CellParallel: 1,
	})

	status, running, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	waitState(t, ts, running.ID, service.StateRunning)
	status, queued, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}

	// Cancel the queued job: immediate, executor must skip it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := getJob(t, ts, queued.ID); v.State != service.StateCancelled {
		t.Fatalf("queued job after cancel = %s", v.State)
	}

	// Cancel the running job mid-run, then release its blocked cell.
	<-started
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	v := waitState(t, ts, running.ID, service.StateCancelled)
	if !strings.Contains(v.Error, "cancel") {
		t.Fatalf("cancelled error = %q", v.Error)
	}
	if v.Cells.Done == 0 {
		t.Fatal("no cell reports recorded for the partially run job")
	}
}

// TestGracefulShutdownDrains: in-flight jobs finish, queued jobs are
// shed, late submissions see 503, and the manifest persists atomically.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	release := make(chan struct{})
	svc, ts := newTestServer(t, service.Options{
		Registry:     blockingRegistry(1, release),
		QueueDepth:   4,
		Executors:    1,
		CellParallel: 1,
		ManifestPath: manifestPath,
	})

	status, inflight, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	waitState(t, ts, inflight.ID, service.StateRunning)
	status, shed, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()
	// Draining: health turns 503 and submissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := fetch(t, ts, "/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status, _, _ := postJob(t, ts, `{"artifacts":["echo"]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", status)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if v := getJob(t, ts, inflight.ID); v.State != service.StateDone {
		t.Fatalf("in-flight job drained to %s, want done", v.State)
	}
	if v := getJob(t, ts, shed.ID); v.State != service.StateCancelled {
		t.Fatalf("queued job on shutdown = %s, want cancelled", v.State)
	}

	m, err := store.LoadMemory(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("manifest not persisted on shutdown")
	}
}

// TestBadRequests pins the 400/404 surfaces.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Registry: experiments.Artifacts()})
	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"artifacts":["nope"]}`, "unknown artifact"},
		{`{"sizing":"medium"}`, "sizing"},
		{`{"timeoutSeconds":-1}`, "timeoutSeconds"},
		{`{"config":{"Bogus":1}}`, "config overrides"},
		{`{"config":{"Sockets":0}}`, "config overrides"},
		{`{"bogusField":1}`, "request body"},
		// The access-stream executor is not selectable: a job naming a
		// kernel is malformed, not silently run.
		{`{"kernel":"compiled"}`, `unknown field \"kernel\"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), tc.want) {
			t.Fatalf("body %s: status %d, response %s (want 400 mentioning %q)", tc.body, resp.StatusCode, buf.String(), tc.want)
		}
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/events", "/v1/jobs/job-999999/artifacts/table1.tsv"} {
		code, _ := fetch(t, ts, path)
		if code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestHugeTimeoutClampsToMax: a timeout too large for a Duration
// clamps to MaxTimeout instead of wrapping negative and failing the job
// at once.
func TestHugeTimeoutClampsToMax(t *testing.T) {
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, service.Options{Registry: blockingRegistry(1, release), DisableDispatch: true})
	status, v, _ := postJob(t, ts, `{"artifacts":["echo"],"timeoutSeconds":1e10}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	waitState(t, ts, v.ID, service.StateDone)
}

// TestConfigOverridesChangeDigest submits a job with a machine-config
// override and checks it runs under a different config digest (so the
// cache cannot alias across configurations).
func TestConfigOverridesChangeDigest(t *testing.T) {
	_, ts := newTestServer(t, service.Options{
		Registry:    experiments.Artifacts(),
		DefaultSeed: experiments.DefaultSeed,
	})
	_, base, _ := postJob(t, ts, `{"artifacts":["table1"],"sizing":"quick"}`)
	_, tweaked, _ := postJob(t, ts, `{"artifacts":["table1"],"sizing":"quick","config":{"Sockets":4}}`)
	b := waitState(t, ts, base.ID, service.StateDone)
	tw := waitState(t, ts, tweaked.ID, service.StateDone)
	if b.ConfigDigest == tw.ConfigDigest {
		t.Fatal("override did not change the config digest")
	}
	if tw.Cells.Cached != 0 {
		t.Fatalf("tweaked config served from base cache: %+v", tw.Cells)
	}
}

// TestProtocolListingAndOverride exercises the protocol registry over
// HTTP: GET /v1/protocols names every registered protocol, a job's
// config override can select one by name, and an unknown name is
// rejected at submission with the valid names in the error.
func TestProtocolListingAndOverride(t *testing.T) {
	_, ts := newTestServer(t, service.Options{
		Registry:    experiments.Artifacts(),
		DefaultSeed: experiments.DefaultSeed,
	})

	code, body := fetch(t, ts, "/v1/protocols")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/protocols = %d: %s", code, body)
	}
	var listing struct {
		Protocols []struct {
			Name           string `json:"name"`
			SilentUpgrades bool   `json:"silentUpgrades"`
			Default        bool   `json:"default"`
		} `json:"protocols"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	var def string
	for _, p := range listing.Protocols {
		got[p.Name] = p.SilentUpgrades
		if p.Default {
			def = p.Name
		}
	}
	for _, want := range []string{"MESI", "MESIF", "MOESI", "DRAGON", "WT-NA"} {
		if _, ok := got[want]; !ok {
			t.Errorf("listing missing protocol %s", want)
		}
	}
	if def != "MESIF" {
		t.Errorf("default protocol = %q, want MESIF", def)
	}
	if got["WT-NA"] || !got["MESIF"] {
		t.Errorf("silentUpgrades wrong: %v", got)
	}

	// A job can select any registered protocol by name.
	_, job, _ := postJob(t, ts, `{"artifacts":["table1"],"sizing":"quick","config":{"Protocol":"MOESI"}}`)
	waitState(t, ts, job.ID, service.StateDone)

	// Unknown protocols are rejected at submission, naming the options.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"artifacts":["table1"],"config":{"Protocol":"MESIFY"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "MESIFY") || !strings.Contains(buf.String(), "DRAGON") {
		t.Fatalf("unknown protocol: status %d, body %s (want 400 naming the registered protocols)", resp.StatusCode, buf.String())
	}
}

// TestReplacementListingAndOverride mirrors the protocol test for the
// replacement-policy registry: GET /v1/replacements names every policy,
// a job's config override can select one, and an unknown name is a 400
// at submission.
func TestReplacementListingAndOverride(t *testing.T) {
	_, ts := newTestServer(t, service.Options{
		Registry:    experiments.Artifacts(),
		DefaultSeed: experiments.DefaultSeed,
	})

	code, body := fetch(t, ts, "/v1/replacements")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/replacements = %d: %s", code, body)
	}
	var listing struct {
		Replacements []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"replacements"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range listing.Replacements {
		got[p.Name] = p.Default
	}
	for _, want := range []string{"LRU", "tree-PLRU", "SRRIP", "BRRIP"} {
		if _, ok := got[want]; !ok {
			t.Errorf("listing missing policy %s", want)
		}
	}
	if !got["LRU"] || got["SRRIP"] {
		t.Errorf("default flag wrong: %v", got)
	}

	// A job can select any registered policy by name (case-insensitive).
	_, job, _ := postJob(t, ts, `{"artifacts":["table1"],"sizing":"quick","config":{"Replacement":"srrip"}}`)
	waitState(t, ts, job.ID, service.StateDone)

	// Unknown policies are rejected at submission, naming the options.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"artifacts":["table1"],"config":{"Replacement":"MRU"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "MRU") || !strings.Contains(buf.String(), "SRRIP") {
		t.Fatalf("unknown policy: status %d, body %s (want 400 naming the registered policies)", resp.StatusCode, buf.String())
	}
}
