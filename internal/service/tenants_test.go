package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/service"
	"coherentleak/internal/store"
	"coherentleak/internal/sweep"
	"coherentleak/internal/tenant"
)

const (
	aliceKey = "alice-key-123456"
	bobKey   = "bob-key-1234567"
)

// twoTenants builds a registry with alice (maxInFlight 2) and bob
// (unbounded).
func twoTenants(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New([]*tenant.Tenant{
		{Name: "alice", Key: aliceKey, Quotas: tenant.Quotas{MaxInFlight: 2}},
		{Name: "bob", Key: bobKey},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// doAs issues a request with a tenant's bearer key ("" sends no
// Authorization header).
func doAs(t *testing.T, ts *httptest.Server, key, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// waitStateAs polls a job as one tenant until it reaches a wanted state.
func waitStateAs(t *testing.T, ts *httptest.Server, key, id string, want ...service.State) service.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body, _ := doAs(t, ts, key, "GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		var v service.View
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
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

// TestSharedDiskStoreAcrossReplicas is the tentpole acceptance: two
// service replicas pointed at one -store-dir share the cell cache.
// Replica 2's first run of a job replica 1 already executed is served
// entirely from disk, and both TSVs are byte-identical to a serial
// cmd/experiments-style run.
func TestSharedDiskStoreAcrossReplicas(t *testing.T) {
	dir := t.TempDir()
	disk1, err := store.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	disk2, err := store.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, service.Options{
		Registry: experiments.Artifacts(), DefaultSeed: experiments.DefaultSeed, Store: disk1,
	})
	_, ts2 := newTestServer(t, service.Options{
		Registry: experiments.Artifacts(), DefaultSeed: experiments.DefaultSeed, Store: disk2,
	})

	arts, err := experiments.Artifacts().Select([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	serial := &harness.Runner{Parallel: 1}
	rep, err := serial.Run(t.Context(), harness.Plan{
		Cfg: machine.DefaultConfig(), Seed: experiments.DefaultSeed, Sizing: harness.SizingQuick,
	}, arts)
	if err != nil {
		t.Fatal(err)
	}
	wantTSV := rep.Results[0].TSV()

	body := `{"artifacts":["table1"],"sizing":"quick"}`
	status, v1, _ := postJob(t, ts1, body)
	if status != http.StatusAccepted {
		t.Fatalf("replica 1 submit = %d", status)
	}
	done1 := waitState(t, ts1, v1.ID, service.StateDone)
	if done1.Cells.Executed != done1.Cells.Total {
		t.Fatalf("replica 1 cold run should execute all cells: %+v", done1.Cells)
	}

	status, v2, _ := postJob(t, ts2, body)
	if status != http.StatusAccepted {
		t.Fatalf("replica 2 submit = %d", status)
	}
	done2 := waitState(t, ts2, v2.ID, service.StateDone)
	if done2.Cells.Cached != done2.Cells.Total || done2.Cells.Executed != 0 {
		t.Fatalf("replica 2 should be served fully from the shared store: %+v", done2.Cells)
	}

	_, tsv1 := fetch(t, ts1, "/v1/jobs/"+v1.ID+"/artifacts/table1.tsv")
	_, tsv2 := fetch(t, ts2, "/v1/jobs/"+v2.ID+"/artifacts/table1.tsv")
	if !bytes.Equal(tsv1, tsv2) {
		t.Fatal("replica TSVs differ")
	}
	if !bytes.Equal(tsv2, wantTSV) {
		t.Fatalf("shared-store TSV differs from the serial run:\n--- replica ---\n%s--- serial ---\n%s", tsv2, wantTSV)
	}
}

// TestAuthRequiredAndExemptRoutes: with a keys file loaded, every
// tenant route Handler registers demands a bearer key while the
// infrastructure surface stays open.
func TestAuthRequiredAndExemptRoutes(t *testing.T) {
	release := make(chan struct{})
	close(release)
	// Dispatch stays enabled so the worker-fleet surface mounts: the
	// exempt-route check below covers /v1/workers.
	_, ts := newTestServer(t, service.Options{
		Registry: blockingRegistry(1, release), Tenants: twoTenants(t),
	})

	for _, route := range []struct{ method, path, body string }{
		{"POST", "/v1/jobs", `{"artifacts":["echo"]}`},
		{"GET", "/v1/jobs", ""},
		{"GET", "/v1/jobs/job-000001", ""},
		{"DELETE", "/v1/jobs/job-000001", ""},
		{"POST", "/v1/jobs/job-000001/cancel", ""},
		{"GET", "/v1/jobs/job-000001/events", ""},
		{"GET", "/v1/jobs/job-000001/artifacts/echo.tsv", ""},
		{"POST", "/v1/sweeps", `{}`},
		{"GET", "/v1/sweeps", ""},
		{"GET", "/v1/sweeps/sweep-000001", ""},
		{"DELETE", "/v1/sweeps/sweep-000001", ""},
		{"POST", "/v1/sweeps/sweep-000001/cancel", ""},
		{"GET", "/v1/sweeps/sweep-000001/events", ""},
		{"GET", "/v1/sweeps/sweep-000001/frontier.tsv", ""},
		{"GET", "/v1/tenants/self", ""},
	} {
		for _, key := range []string{"", "wrong-key-123456"} {
			code, body, hdr := doAs(t, ts, key, route.method, route.path, route.body)
			if code != http.StatusUnauthorized {
				t.Fatalf("%s %s with key %q = %d (%s), want 401", route.method, route.path, key, code, body)
			}
			if hdr.Get("WWW-Authenticate") == "" {
				t.Fatalf("%s %s: 401 must carry WWW-Authenticate", route.method, route.path)
			}
		}
	}
	for _, path := range []string{"/healthz", "/metrics", "/v1/version", "/v1/artifacts", "/v1/protocols", "/v1/replacements", "/v1/workers"} {
		if code, body, _ := doAs(t, ts, "", "GET", path, ""); code != http.StatusOK {
			t.Fatalf("exempt route %s = %d (%s), want 200", path, code, body)
		}
	}
	// Authentication is decided per registered route: a path or method
	// no route serves gets the mux's answer, not 401.
	if code, _, _ := doAs(t, ts, "", "GET", "/v1/nowhere", ""); code != http.StatusNotFound {
		t.Fatalf("unrouted path = %d, want 404", code)
	}
	if code, _, _ := doAs(t, ts, "", "PUT", "/v1/jobs", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("unrouted method = %d, want 405", code)
	}
	if code, _, _ := doAs(t, ts, aliceKey, "POST", "/v1/jobs", `{"artifacts":["echo"]}`); code != http.StatusAccepted {
		t.Fatalf("authenticated submit = %d, want 202", code)
	}
}

// TestWorkerRoutesMountOnlyWithDispatch pins the only guard on the
// worker-fleet protocol: its routes take no API key even with a keys
// file loaded, so any client that reaches them can register, lease
// cells and post results, and DisableDispatch unmounts every one.
func TestWorkerRoutesMountOnlyWithDispatch(t *testing.T) {
	routes := []struct{ method, path, body string }{
		{"POST", "/v1/workers", `{"name":"stranger"}`},
		{"GET", "/v1/workers", ""},
		{"POST", "/v1/workers/w-000001/heartbeat", ""},
		{"POST", "/v1/workers/w-000001/lease", `{"waitMillis":1}`},
		{"POST", "/v1/workers/w-000001/result", `{"leaseId":"lease-00000001"}`},
		{"DELETE", "/v1/workers/w-000001", ""},
	}
	for _, disable := range []bool{false, true} {
		_, ts := newTestServer(t, service.Options{
			Registry: blockingRegistry(1, nil), Tenants: twoTenants(t), DisableDispatch: disable,
		})
		for _, r := range routes {
			code, body, _ := doAs(t, ts, "", r.method, r.path, r.body)
			if disable && code != http.StatusNotFound {
				t.Fatalf("DisableDispatch: %s %s = %d (%s), want 404", r.method, r.path, code, body)
			}
			if !disable && (code < 200 || code > 299) {
				t.Fatalf("dispatch on: %s %s without a key = %d (%s), want 2xx", r.method, r.path, code, body)
			}
		}
	}
}

// TestSweepBudgetCheckedBeforeExpansion: a tenant's sweepBudget rejects
// an oversized grid from its size alone — the 5,000,000 points the spec
// allows itself are never built.
func TestSweepBudgetCheckedBeforeExpansion(t *testing.T) {
	reg, err := tenant.New([]*tenant.Tenant{{Name: "alice", Key: aliceKey, Quotas: tenant.Quotas{SweepBudget: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, service.Options{Registry: blockingRegistry(1, nil), Tenants: reg, DisableDispatch: true})
	alice, err := reg.Authenticate("Bearer " + aliceKey)
	if err != nil {
		t.Fatal(err)
	}
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(`{
		"artifacts": ["echo"], "maxPoints": 10000000,
		"axes": [{"param": "Latencies.QPI", "min": 1, "max": 100, "steps": 5000000, "ints": true}],
		"objective": {"artifact": "echo", "column": "v"}
	}`), &spec); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = svc.SubmitSweep(alice, spec)
	runtime.ReadMemStats(&after)
	const want = "sweep: 5000000 point(s) exceed tenant alice's sweep budget of 10"
	if err == nil || err.Error() != want {
		t.Fatalf("SubmitSweep = %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the sweep allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestAnonymousSweepCap: in anonymous mode a spec's own maxPoints cannot
// lift the default point cap. Over-cap grid and random specs get a 400
// before any point is expanded; a spec that sets a large maxPoints but
// stays under the cap is still accepted.
func TestAnonymousSweepCap(t *testing.T) {
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, service.Options{
		Registry: blockingRegistry(1, release), Tenants: tenant.Open(), DisableDispatch: true,
	})
	want := fmt.Sprintf("sweep: 5000 point(s) exceed tenant anonymous's sweep budget of %d", sweep.DefaultMaxPoints)
	for _, tc := range []struct{ name, body string }{
		{"grid", `{"artifacts":["echo"],"maxPoints":10000000,
			"axes":[{"param":"Latencies.QPI","min":1,"max":100,"steps":5000,"ints":true}],
			"objective":{"artifact":"echo","column":"v"}}`},
		{"random", `{"artifacts":["echo"],"maxPoints":10000000,"strategy":"random","samples":5000,
			"axes":[{"param":"Latencies.QPI","min":1,"max":100,"ints":true}],
			"objective":{"artifact":"echo","column":"v"}}`},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, _, raw := submitSweep(t, ts, tc.body)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), want) {
			t.Fatalf("%s: POST /v1/sweeps = %d %s, want 400 %q", tc.name, code, raw, want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: rejecting the sweep allocated %d bytes, want < 1 MiB", tc.name, alloc)
		}
	}
	code, sw, raw := submitSweep(t, ts, `{"artifacts":["echo"],"maxPoints":10000000,
		"axes":[{"param":"seed","values":[1,2]}],"objective":{"artifact":"echo","column":"v"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("under-cap sweep = %d %s, want 202", code, raw)
	}
	waitSweep(t, ts, sw.ID, service.StateDone)
}

// TestTenantOwnership: a tenant's jobs and sweeps are invisible to
// other tenants — GET, DELETE, events, downloads, frontiers and
// listings all report not-found.
func TestTenantOwnership(t *testing.T) {
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, service.Options{
		Registry: blockingRegistry(1, release), Tenants: twoTenants(t), DisableDispatch: true,
	})

	code, body, _ := doAs(t, ts, aliceKey, "POST", "/v1/jobs", `{"artifacts":["echo"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var v service.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", v.Tenant)
	}
	waitStateAs(t, ts, aliceKey, v.ID, service.StateDone)

	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + v.ID},
		{"DELETE", "/v1/jobs/" + v.ID},
		{"GET", "/v1/jobs/" + v.ID + "/events"},
		{"GET", "/v1/jobs/" + v.ID + "/artifacts/echo.tsv"},
	} {
		if code, _, _ := doAs(t, ts, bobKey, probe.method, probe.path, ""); code != http.StatusNotFound {
			t.Fatalf("bob %s %s = %d, want 404", probe.method, probe.path, code)
		}
	}
	if code, _, _ := doAs(t, ts, aliceKey, "GET", "/v1/jobs/"+v.ID, ""); code != http.StatusOK {
		t.Fatal("alice cannot see her own job")
	}

	var list struct {
		Jobs []service.View `json:"jobs"`
	}
	_, body, _ = doAs(t, ts, bobKey, "GET", "/v1/jobs", "")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("bob's listing shows %d job(s), want 0", len(list.Jobs))
	}
	_, body, _ = doAs(t, ts, aliceKey, "GET", "/v1/jobs", "")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("alice's listing shows %d job(s), want 1", len(list.Jobs))
	}

	// Sweeps are owned the same way.
	code, body, _ = doAs(t, ts, aliceKey, "POST", "/v1/sweeps", `{
		"artifacts": ["echo"],
		"axes": [{"param": "seed", "values": [1, 2]}],
		"objective": {"artifact": "echo", "column": "v"}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d (%s)", code, body)
	}
	var sw service.SweepView
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Tenant != "alice" {
		t.Fatalf("sweep tenant = %q, want alice", sw.Tenant)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		code, body, _ := doAs(t, ts, aliceKey, "GET", "/v1/sweeps/"+sw.ID, "")
		if code != http.StatusOK {
			t.Fatalf("alice GET sweep = %d", code)
		}
		var v service.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == service.StateDone {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("sweep %s = %s (%s), want done", sw.ID, v.State, v.Error)
		}
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sweeps/" + sw.ID},
		{"DELETE", "/v1/sweeps/" + sw.ID},
		{"POST", "/v1/sweeps/" + sw.ID + "/cancel"},
		{"GET", "/v1/sweeps/" + sw.ID + "/events"},
		{"GET", "/v1/sweeps/" + sw.ID + "/frontier.tsv"},
	} {
		if code, _, _ := doAs(t, ts, bobKey, probe.method, probe.path, ""); code != http.StatusNotFound {
			t.Fatalf("bob %s %s = %d, want 404", probe.method, probe.path, code)
		}
		if code, _, _ := doAs(t, ts, aliceKey, probe.method, probe.path, ""); code != http.StatusOK {
			t.Fatalf("alice %s %s = %d, want 200", probe.method, probe.path, code)
		}
	}
	var sweeps struct {
		Sweeps []service.SweepView `json:"sweeps"`
	}
	_, body, _ = doAs(t, ts, bobKey, "GET", "/v1/sweeps", "")
	if err := json.Unmarshal(body, &sweeps); err != nil {
		t.Fatal(err)
	}
	if len(sweeps.Sweeps) != 0 {
		t.Fatalf("bob's sweep listing shows %d sweep(s), want 0", len(sweeps.Sweeps))
	}
	_, body, _ = doAs(t, ts, aliceKey, "GET", "/v1/sweeps", "")
	if err := json.Unmarshal(body, &sweeps); err != nil {
		t.Fatal(err)
	}
	if len(sweeps.Sweeps) != 1 {
		t.Fatalf("alice's sweep listing shows %d sweep(s), want 1", len(sweeps.Sweeps))
	}
}

// TestTenantQuotaAnd429Body: alice's third in-flight job is rejected
// with her quota, a per-tenant Retry-After, and a body carrying her
// own queue depth — while bob is unaffected. /v1/tenants/self mirrors
// the live usage.
func TestTenantQuotaAnd429Body(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, service.Options{
		Registry: blockingRegistry(1, release), Tenants: twoTenants(t),
		QueueDepth: 8, DisableDispatch: true,
	})
	defer close(release)

	submit := func(key string) (int, []byte, http.Header) {
		return doAs(t, ts, key, "POST", "/v1/jobs", `{"artifacts":["block"]}`)
	}
	for i := 0; i < 2; i++ {
		if code, body, _ := submit(aliceKey); code != http.StatusAccepted {
			t.Fatalf("alice submit %d = %d (%s)", i, code, body)
		}
	}
	code, body, hdr := submit(aliceKey)
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice over-quota submit = %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 must carry Retry-After")
	}
	var adm struct {
		Error             string `json:"error"`
		Tenant            string `json:"tenant"`
		QueueDepth        int    `json:"queueDepth"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(body, &adm); err != nil {
		t.Fatal(err)
	}
	if adm.Tenant != "alice" || adm.RetryAfterSeconds < 1 {
		t.Fatalf("429 body = %+v", adm)
	}
	if !strings.Contains(adm.Error, "quota") {
		t.Fatalf("429 error %q should name the quota", adm.Error)
	}
	// One of alice's two jobs is running, the other queued: her depth
	// in the 429 body is her own lane's, not the global queue's.
	if adm.QueueDepth != 1 {
		t.Fatalf("429 queueDepth = %d, want alice's own backlog of 1", adm.QueueDepth)
	}

	if code, body, _ := submit(bobKey); code != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's quota: %d (%s)", code, body)
	}

	code, body, _ = doAs(t, ts, aliceKey, "GET", "/v1/tenants/self", "")
	if code != http.StatusOK {
		t.Fatalf("tenants/self = %d", code)
	}
	var self service.TenantSelfView
	if err := json.Unmarshal(body, &self); err != nil {
		t.Fatal(err)
	}
	if self.Name != "alice" || !self.AuthEnabled || self.Quotas.MaxInFlight != 2 {
		t.Fatalf("self = %+v", self)
	}
	if got := self.Usage.JobsQueued + self.Usage.JobsRunning; got != 2 {
		t.Fatalf("alice's live usage = %+v, want 2 jobs in flight", self.Usage)
	}

	// The per-tenant series render on /metrics.
	_, body, _ = doAs(t, ts, "", "GET", "/metrics", "")
	for _, want := range []string{
		`cohsimd_tenant_jobs_accepted_total{tenant="alice"} 2`,
		`cohsimd_tenant_jobs_rejected_total{tenant="alice",reason="quota"} 1`,
		`cohsimd_tenant_jobs_accepted_total{tenant="bob"} 1`,
		`cohsimd_tenant_queue_depth{tenant="alice"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestFairQueueServesLightTenantEarly: bob's single job, submitted
// behind alice's backlog, runs before alice's later jobs — the fair
// queue prevents head-of-line blocking at the service level.
func TestFairQueueServesLightTenantEarly(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, service.Options{
		Registry: blockingRegistry(1, release),
		Tenants: func() *tenant.Registry {
			reg, err := tenant.New([]*tenant.Tenant{
				{Name: "alice", Key: aliceKey},
				{Name: "bob", Key: bobKey},
			})
			if err != nil {
				t.Fatal(err)
			}
			return reg
		}(),
		QueueDepth: 16, Executors: 1, DisableDispatch: true,
	})

	// The first job occupies the lone executor until release closes;
	// alice then piles up a backlog before bob submits one job.
	submit := func(key, artifact string) service.View {
		code, body, _ := doAs(t, ts, key, "POST", "/v1/jobs", `{"artifacts":["`+artifact+`"]}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d (%s)", code, body)
		}
		var v service.View
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	submit(aliceKey, "block")
	var aliceEchoes []service.View
	for i := 0; i < 3; i++ {
		aliceEchoes = append(aliceEchoes, submit(aliceKey, "echo"))
	}
	bobJob := submit(bobKey, "echo")
	close(release)

	bobDone := waitStateAs(t, ts, bobKey, bobJob.ID, service.StateDone)
	lastAlice := waitStateAs(t, ts, aliceKey, aliceEchoes[2].ID, service.StateDone)
	if bobDone.Started == nil || lastAlice.Started == nil {
		t.Fatal("missing start timestamps")
	}
	if !bobDone.Started.Before(*lastAlice.Started) {
		t.Fatalf("bob's single job started %s, after alice's 4th job at %s — head-of-line blocked",
			bobDone.Started, lastAlice.Started)
	}
}
