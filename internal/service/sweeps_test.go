package service_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/service"
	"coherentleak/internal/tenant"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current run")

func submitSweep(t *testing.T, ts *httptest.Server, body string) (int, service.SweepView, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.SweepView
	var raw []byte
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		raw = buf[:n]
	}
	return resp.StatusCode, v, raw
}

func getSweep(t *testing.T, ts *httptest.Server, id string) service.SweepView {
	t.Helper()
	code, body := fetch(t, ts, "/v1/sweeps/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET sweep %s: status %d", id, code)
	}
	var v service.SweepView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitSweep polls until the sweep reaches one of the wanted states,
// failing fast on an unexpected terminal state.
func waitSweep(t *testing.T, ts *httptest.Server, id string, want ...service.State) service.SweepView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := getSweep(t, ts, id)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		if v.State.Terminal() {
			t.Fatalf("sweep %s reached %s (error %q), want one of %v", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for sweep %s to reach %v (now %s)", id, want, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readSweepSSE consumes a sweep's event stream to its end (terminal
// state), optionally resuming via Last-Event-ID.
func readSweepSSE(t *testing.T, ts *httptest.Server, id string, lastEventID int) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep events = %d", resp.StatusCode)
	}
	var events []sseEvent
	cur := sseEvent{id: -1}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "": // dispatch
			events = append(events, cur)
			cur = sseEvent{id: -1}
		}
	}
	return events
}

// gridSweepSpec is the shared 8-point grid (2 QPI latencies x 4 seeds)
// over the deterministic "grid" artifact.
const gridSweepSpec = `{
	"name": "modes",
	"artifacts": ["grid"],
	"sizing": "quick",
	"axes": [
		{"param": "Latencies.QPI", "values": [40, 60]},
		{"param": "seed", "values": [1, 2, 3, 4]}
	],
	"objective": {"artifact": "grid", "column": "value"}
}`

// TestSweepFrontierByteIdenticalAcrossRunModes is the tentpole
// determinism contract: the same sweep spec produces a byte-identical
// ranked frontier TSV whether points run serially in process, on an
// 8-wide cell pool, or leased out to a worker fleet.
func TestSweepFrontierByteIdenticalAcrossRunModes(t *testing.T) {
	run := func(t *testing.T, opts service.Options, fleet int) []byte {
		reg := fleetRegistry(4, nil)
		opts.Registry = reg
		opts.DefaultSeed = 3
		_, ts := newTestServer(t, opts)
		for i := 0; i < fleet; i++ {
			attachWorker(t, ts, fmt.Sprintf("sw%d", i), reg)
		}
		if fleet > 0 {
			waitWorkers(t, ts, fleet)
		}
		code, v, raw := submitSweep(t, ts, gridSweepSpec)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
		}
		done := waitSweep(t, ts, v.ID, service.StateDone)
		if done.Points.Total != 8 || done.Points.Completed != 8 || done.Points.Failed != 0 {
			t.Fatalf("points = %+v, want 8 total / 8 completed / 0 failed", done.Points)
		}
		tsvCode, tsv := fetch(t, ts, "/v1/sweeps/"+v.ID+"/frontier.tsv")
		if tsvCode != http.StatusOK {
			t.Fatalf("GET frontier.tsv = %d", tsvCode)
		}
		return tsv
	}

	serial := run(t, service.Options{CellParallel: 1, DisableDispatch: true, SweepInFlight: 1}, 0)
	parallel := run(t, service.Options{CellParallel: 8, DisableDispatch: true, SweepInFlight: 6, Executors: 2}, 0)
	fleet := run(t, service.Options{SweepInFlight: 4, Executors: 2}, testFleetSize(t))

	if string(serial) != string(parallel) {
		t.Errorf("serial and parallel frontiers differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if string(serial) != string(fleet) {
		t.Errorf("serial and fleet frontiers differ:\nserial:\n%s\nfleet:\n%s", serial, fleet)
	}

	// Pin the actual ranking: grid value = seed*100 + cell index, so the
	// top score is seed 4's g03 cell; the QPI=40 point wins the tie on
	// point index.
	lines := strings.Split(strings.TrimRight(string(serial), "\n"), "\n")
	if lines[0] != "rank\tpoint\tscore\tseed\tLatencies.QPI\tseed" {
		t.Fatalf("frontier header = %q", lines[0])
	}
	if len(lines) != 9 {
		t.Fatalf("frontier has %d rows, want 8", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "1\t3\t403\t4\t40\t4") {
		t.Errorf("top frontier row = %q, want point 3 (QPI=40, seed=4) scoring 403", lines[1])
	}
}

// TestSweepRerunServedFromCache pins the dedup contract: resubmitting
// an identical sweep on the same daemon is served almost entirely from
// the shared manifest cell cache (>=90% of cells).
func TestSweepRerunServedFromCache(t *testing.T) {
	reg := fleetRegistry(4, nil)
	_, ts := newTestServer(t, service.Options{
		Registry: reg, DefaultSeed: 3, DisableDispatch: true, SweepInFlight: 2,
	})

	code, first, raw := submitSweep(t, ts, gridSweepSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}
	firstDone := waitSweep(t, ts, first.ID, service.StateDone)
	if firstDone.Cells.Executed == 0 {
		t.Fatalf("first sweep executed no cells: %+v", firstDone.Cells)
	}

	code, second, raw := submitSweep(t, ts, gridSweepSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}
	secondDone := waitSweep(t, ts, second.ID, service.StateDone)
	if secondDone.Cells.Total == 0 {
		t.Fatalf("second sweep saw no cells: %+v", secondDone.Cells)
	}
	ratio := float64(secondDone.Cells.Cached) / float64(secondDone.Cells.Total)
	if ratio < 0.9 {
		t.Errorf("second sweep cache ratio = %.2f (%d/%d cached), want >= 0.9",
			ratio, secondDone.Cells.Cached, secondDone.Cells.Total)
	}

	_, tsv1 := fetch(t, ts, "/v1/sweeps/"+first.ID+"/frontier.tsv")
	_, tsv2 := fetch(t, ts, "/v1/sweeps/"+second.ID+"/frontier.tsv")
	if string(tsv1) != string(tsv2) {
		t.Errorf("cached rerun frontier differs:\nfirst:\n%s\nsecond:\n%s", tsv1, tsv2)
	}
}

// TestSweepSlowSubscriberEvictionAndResume pins SSE flow control under
// a large sweep stream: a subscriber that never reads is evicted once
// the sweep outruns its buffer (the eviction metric ticks), and a
// reconnect with Last-Event-ID recovers every missed event through the
// terminal state.
func TestSweepSlowSubscriberEvictionAndResume(t *testing.T) {
	release := make(chan struct{})
	releaseOnce := func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}
	defer releaseOnce()

	reg := fleetRegistry(1, nil)
	reg.MustRegister(&harness.Artifact{
		Name: "gate", Description: "one cell blocks until released",
		File: "gate.tsv", Header: "cell\tv",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return []harness.Cell{{Name: "g", Run: func() (harness.CellOutput, error) {
				<-release
				return harness.CellOutput{Rows: []string{"g\t1"}}, nil
			}}}, nil
		},
	})
	tenants := tenant.Open()
	svc, ts := newTestServer(t, service.Options{
		Registry: reg, Tenants: tenants, DefaultSeed: 3, DisableDispatch: true, SweepInFlight: 1,
	})

	// Park a gate job on the single executor so the sweep cannot publish
	// point events before the slow subscriber attaches.
	code, gate, _ := postJob(t, ts, `{"artifacts":["gate"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST gate job = %d", code)
	}
	waitState(t, ts, gate.ID, service.StateRunning)

	// 150 points x (point + frontier) events plus state transitions
	// comfortably overflows the 256-event sweep buffer.
	code, sw, raw := submitSweep(t, ts, `{
		"name": "big",
		"artifacts": ["grid"],
		"axes": [{"param": "seed", "min": 1, "max": 150, "steps": 150, "ints": true}],
		"objective": {"artifact": "grid", "column": "value"}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}

	history, ch, unsub, ok := svc.SubscribeSweep(tenants.Anonymous(), sw.ID)
	if !ok {
		t.Fatalf("SubscribeSweep(%s) missing", sw.ID)
	}
	defer unsub()
	if ch == nil {
		t.Fatal("sweep already terminal at subscribe time")
	}
	maxSeq := -1
	for _, ev := range history {
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
	}

	releaseOnce()
	waitState(t, ts, gate.ID, service.StateDone)
	done := waitSweep(t, ts, sw.ID, service.StateDone)
	if done.Points.Completed != 150 {
		t.Fatalf("points completed = %d, want 150", done.Points.Completed)
	}

	// The subscriber never read: its channel must have been closed by
	// eviction, holding at most one buffer's worth of events.
	drained := 0
	deadline := time.After(10 * time.Second)
drain:
	for {
		select {
		case ev, open := <-ch:
			if !open {
				break drain
			}
			drained++
			if ev.Seq > maxSeq {
				maxSeq = ev.Seq
			}
		case <-deadline:
			t.Fatal("slow subscriber channel never closed; eviction did not fire")
		}
	}

	full := readSweepSSE(t, ts, sw.ID, -1)
	lastSeq := full[len(full)-1].id
	if maxSeq >= lastSeq {
		t.Fatalf("slow subscriber saw seq %d of %d: stream never outran the buffer", maxSeq, lastSeq)
	}
	t.Logf("evicted after %d buffered events (seq %d of %d)", drained+len(history), maxSeq, lastSeq)

	// Last-Event-ID resume recovers exactly the gap, ending terminal.
	resumed := readSweepSSE(t, ts, sw.ID, maxSeq)
	if len(resumed) == 0 {
		t.Fatal("resume returned no events")
	}
	if resumed[0].id != maxSeq+1 {
		t.Errorf("resume started at seq %d, want %d", resumed[0].id, maxSeq+1)
	}
	for i := 1; i < len(resumed); i++ {
		if resumed[i].id != resumed[i-1].id+1 {
			t.Fatalf("resumed stream has a gap: seq %d follows %d", resumed[i].id, resumed[i-1].id)
		}
	}
	tail := resumed[len(resumed)-1]
	if tail.event != "state" || !strings.Contains(tail.data, `"state":"done"`) {
		t.Errorf("resumed stream ended with %s %q, want terminal state event", tail.event, tail.data)
	}

	metricsCode, metrics := fetch(t, ts, "/metrics")
	if metricsCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", metricsCode)
	}
	if !evictionCounterPositive(string(metrics)) {
		t.Errorf("cohsimd_sse_evictions_total not incremented:\n%s", metrics)
	}
}

func evictionCounterPositive(metrics string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "cohsimd_sse_evictions_total ") {
			n, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return err == nil && n >= 1
		}
	}
	return false
}

// TestSweepBackoffOnFullQueue pins sweep-aware admission control end to
// end: with the job queue full, point submissions are retried after the
// server's computed Retry-After instead of failing, and the sweep still
// completes once the queue drains.
func TestSweepBackoffOnFullQueue(t *testing.T) {
	release := make(chan struct{})
	released := false
	releaseAll := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer releaseAll()
	reg := blockingRegistry(1, release)
	_, ts := newTestServer(t, service.Options{
		Registry: reg, QueueDepth: 1, Executors: 1, DisableDispatch: true, SweepInFlight: 1,
	})

	// One job running, one queued: the queue is now full.
	code, running, _ := postJob(t, ts, `{"artifacts":["block"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST block job = %d", code)
	}
	waitState(t, ts, running.ID, service.StateRunning)
	if code, _, _ := postJob(t, ts, `{"artifacts":["block"]}`); code != http.StatusAccepted {
		t.Fatalf("POST queued block job = %d", code)
	}

	code, sw, raw := submitSweep(t, ts, `{
		"artifacts": ["echo"],
		"axes": [{"param": "seed", "values": [1, 2]}],
		"objective": {"artifact": "echo", "column": "v"}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}

	// The first point must hit admission control and back off rather
	// than fail.
	deadline := time.Now().Add(30 * time.Second)
	for getSweep(t, ts, sw.ID).Points.Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never recorded a backoff against the full queue")
		}
		time.Sleep(10 * time.Millisecond)
	}

	releaseAll()
	done := waitSweep(t, ts, sw.ID, service.StateDone)
	if done.Points.Completed != 2 || done.Points.Failed != 0 {
		t.Fatalf("points = %+v, want 2 completed / 0 failed", done.Points)
	}
	if done.Points.Retries == 0 {
		t.Error("final view lost the retry count")
	}

	// The stream must carry the backoff events it announced.
	events := readSweepSSE(t, ts, sw.ID, -1)
	backoffs := 0
	for _, ev := range events {
		if ev.event == "backoff" {
			backoffs++
			if !strings.Contains(ev.data, "retryAfterSeconds") {
				t.Errorf("backoff event without retryAfterSeconds: %q", ev.data)
			}
		}
	}
	if backoffs == 0 {
		t.Error("no backoff events in the sweep stream")
	}
}

// TestSweepSubmitValidation pins the dry-run contract: malformed specs
// are rejected at submit time with HTTP 400, before any point runs.
func TestSweepSubmitValidation(t *testing.T) {
	reg := fleetRegistry(2, nil)
	_, ts := newTestServer(t, service.Options{Registry: reg, DefaultSeed: 3, DisableDispatch: true})

	cases := []struct {
		name, body, wantErr string
	}{
		{
			"unknown axis path",
			`{"artifacts":["grid"],"axes":[{"param":"Latencies.Bogus","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
			"point 0",
		},
		{
			"unknown artifact",
			`{"artifacts":["nope"],"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"nope","column":"value"}}`,
			"nope",
		},
		{
			"objective artifact not swept",
			`{"artifacts":["grid"],"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"other","column":"value"}}`,
			"objective",
		},
		{
			"no axes",
			`{"artifacts":["grid"],"objective":{"artifact":"grid","column":"value"}}`,
			"axis",
		},
		{
			"over budget",
			`{"artifacts":["grid"],"maxPoints":2,"axes":[{"param":"seed","values":[1,2,3,4]}],"objective":{"artifact":"grid","column":"value"}}`,
			"budget",
		},
		{
			"unknown spec field",
			`{"artifacts":["grid"],"bogus":true,"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
			"bogus",
		},
		{
			"removed kernel field",
			`{"artifacts":["grid"],"kernel":"interp","axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
			`unknown field \"kernel\"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := submitSweep(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST /v1/sweeps = %d, want 400 (body %s)", code, raw)
			}
			if !strings.Contains(string(raw), tc.wantErr) {
				t.Errorf("error %q does not mention %q", raw, tc.wantErr)
			}
		})
	}

	if code, _ := fetch(t, ts, "/v1/sweeps/sweep-999999"); code != http.StatusNotFound {
		t.Errorf("GET unknown sweep = %d, want 404", code)
	}
}

// TestSweepReplacementAxis pins the replacement policy as a sweep
// dimension: a string-valued "Replacement" axis expands into per-policy
// points that run to completion, while an unregistered policy name is
// rejected at submission by the dry-run (400 naming the point), not
// mid-sweep.
func TestSweepReplacementAxis(t *testing.T) {
	reg := fleetRegistry(2, nil)
	_, ts := newTestServer(t, service.Options{Registry: reg, DefaultSeed: 3, DisableDispatch: true})

	code, sw, raw := submitSweep(t, ts, `{
		"artifacts": ["grid"],
		"axes": [{"param": "Replacement", "values": ["LRU", "tree-plru", "srrip", "brrip"]}],
		"objective": {"artifact": "grid", "column": "value"}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}
	done := waitSweep(t, ts, sw.ID, service.StateDone)
	if done.Points.Completed != 4 {
		t.Fatalf("points = %+v, want one completed per policy", done.Points)
	}

	code, _, raw = submitSweep(t, ts, `{
		"artifacts": ["grid"],
		"axes": [{"param": "Replacement", "values": ["LRU", "mru"]}],
		"objective": {"artifact": "grid", "column": "value"}
	}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown policy sweep = %d, want 400 (body %s)", code, raw)
	}
	if !strings.Contains(string(raw), "point 1") || !strings.Contains(string(raw), "replacement policy") {
		t.Errorf("error %q should name the failing point and the policy registry", raw)
	}
}

// TestSweepCancel pins DELETE /v1/sweeps/{id}: a running sweep moves to
// cancelled without waiting for its in-flight point.
func TestSweepCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := blockingRegistry(1, release)
	_, ts := newTestServer(t, service.Options{
		Registry: reg, QueueDepth: 4, Executors: 1, DisableDispatch: true, SweepInFlight: 1,
	})

	code, sw, raw := submitSweep(t, ts, `{
		"artifacts": ["block"],
		"axes": [{"param": "seed", "values": [1, 2]}],
		"objective": {"artifact": "block", "column": "v"}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}
	waitSweep(t, ts, sw.ID, service.StateRunning)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sw.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE sweep = %d", resp.StatusCode)
	}

	v := waitSweep(t, ts, sw.ID, service.StateCancelled)
	if v.Error != "cancelled by client" {
		t.Errorf("cancelled sweep error = %q", v.Error)
	}
	// The terminal state event must close the stream for late readers.
	events := readSweepSSE(t, ts, sw.ID, -1)
	tail := events[len(events)-1]
	if tail.event != "state" || !strings.Contains(tail.data, `"state":"cancelled"`) {
		t.Errorf("stream tail = %s %q, want cancelled state event", tail.event, tail.data)
	}
}

// TestSweepSmokeGolden is the CI smoke gate (make sweep-smoke): a tiny
// 8-point capacity sweep through the daemon with an attached worker
// fleet must reproduce the golden frontier TSV byte for byte. Run with
// -update-golden to regenerate after an intentional simulator change.
func TestSweepSmokeGolden(t *testing.T) {
	reg := experiments.Artifacts()
	_, ts := newTestServer(t, service.Options{
		Registry: reg, DefaultSeed: experiments.DefaultSeed, SweepInFlight: 2, Executors: 2,
	})
	fleet := testFleetSize(t)
	for i := 0; i < fleet; i++ {
		attachWorker(t, ts, fmt.Sprintf("smoke%d", i), reg)
	}
	waitWorkers(t, ts, fleet)

	code, sw, raw := submitSweep(t, ts, `{
		"name": "smoke",
		"artifacts": ["capacity"],
		"sizing": "quick",
		"axes": [
			{"param": "Latencies.QPI", "values": [40, 60]},
			{"param": "seed", "values": [1, 2, 3, 4]}
		],
		"objective": {"artifact": "capacity", "column": "info_kbps", "filter": {"noise": "8"}}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", code, raw)
	}
	done := waitSweep(t, ts, sw.ID, service.StateDone)
	if done.Points.Completed != 8 {
		t.Fatalf("points = %+v, want 8 completed", done.Points)
	}

	tsvCode, tsv := fetch(t, ts, "/v1/sweeps/"+sw.ID+"/frontier.tsv")
	if tsvCode != http.StatusOK {
		t.Fatalf("GET frontier.tsv = %d", tsvCode)
	}
	golden := filepath.Join("testdata", "sweep_smoke_frontier.tsv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, tsv, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestSweepSmokeGolden -update-golden): %v", err)
	}
	if string(tsv) != string(want) {
		t.Errorf("frontier drifted from golden %s:\ngot:\n%s\nwant:\n%s", golden, tsv, want)
	}
}
