package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coherentleak/internal/client"
	"coherentleak/internal/harness"
	"coherentleak/internal/service"
	"coherentleak/internal/tenant"
)

const testKey = "alice-key-123456"

// keyedDaemon serves a one-tenant daemon whose only artifact, "grid",
// has one cell reporting 100*seed.
func keyedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	reg := harness.NewRegistry()
	reg.MustRegister(&harness.Artifact{
		Name: "grid", Description: "one seed-valued cell", File: "grid.tsv", Header: "cell\tvalue",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return []harness.Cell{{Name: "g", Run: func() (harness.CellOutput, error) {
				return harness.CellOutput{Rows: []string{fmt.Sprintf("g\t%d", p.Seed*100)}}, nil
			}}}, nil
		},
	})
	tenants, err := tenant.New([]*tenant.Tenant{{Name: "alice", Key: testKey}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Options{Registry: reg, Tenants: tenants, DisableDispatch: true})
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
	return ts
}

// TestKeyedDaemon: without -key every sweep route answers 401; with it
// the sweep is submitted, followed to its end and its frontier fetched.
func TestKeyedDaemon(t *testing.T) {
	ts := keyedDaemon(t)
	ax, err := parseAxis("seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := buildSpec("", "keyed", "grid", "quick", 0, "", 0, 0, 0, "grid:value:max:max", axisFlags{ax}, filterFlags{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	anon := client.Client{Server: ts.URL}
	if _, err := submit(ctx, anon, spec); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("submit without a key = %v, want 401", err)
	}

	c := client.Client{Server: ts.URL, Key: testKey}
	id, err := submit(ctx, c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := followEvents(ctx, anon, id); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("events without a key = %v, want 401", err)
	}
	if _, err := waitTerminal(ctx, anon, id); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("status without a key = %v, want 401", err)
	}
	if _, err := fetchFrontier(ctx, anon, id); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("frontier without a key = %v, want 401", err)
	}

	if err := followEvents(ctx, c, id); err != nil {
		t.Fatal(err)
	}
	v, err := waitTerminal(ctx, c, id)
	if err != nil || v.State != "done" {
		t.Fatalf("sweep ended %q (%q), %v; want done", v.State, v.Error, err)
	}
	tsv, err := fetchFrontier(ctx, c, id)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Split(strings.TrimSpace(string(tsv)), "\n"); len(rows) != 3 || !strings.Contains(rows[1], "200") {
		t.Fatalf("frontier:\n%s\nwant a header and 2 ranked points, seed 2 (score 200) first", tsv)
	}
}

// TestFollowEventsFailsFastOnClientError: a wrong key (401) or a sweep
// the daemon does not know (404, as after a restart) is not a dropped
// stream. followEvents must return an error naming the status at once
// rather than reconnect until its 2 h timeout.
func TestFollowEventsFailsFastOnClientError(t *testing.T) {
	ts := keyedDaemon(t)
	ax, err := parseAxis("seed=1")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := buildSpec("", "fast-fail", "grid", "quick", 0, "", 0, 0, 0, "grid:value:max:max", axisFlags{ax}, filterFlags{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Hour)
	defer cancel()
	id, err := submit(ctx, client.Client{Server: ts.URL, Key: testKey}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		c      client.Client
		id     string
		status string
	}{
		{"wrong key", client.Client{Server: ts.URL, Key: "wrong-key-1234567"}, id, "401"},
		{"unknown sweep", client.Client{Server: ts.URL, Key: testKey}, "sweep-999999", "404"},
	} {
		done := make(chan error, 1)
		go func() { done <- followEvents(ctx, tc.c, tc.id) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.status) {
				t.Fatalf("%s: followEvents = %v, want an error naming %s", tc.name, err, tc.status)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: followEvents still reconnecting after 2s", tc.name)
		}
	}
}

// TestSweepTimeoutBoundsStalledStream: -timeout bounds every request, not
// only the reconnect loop. The daemon accepts the sweep, then opens its
// event stream and never writes a frame; a 300ms -timeout must end the
// run with a timeout error well before 2s.
func TestSweepTimeoutBoundsStalledStream(t *testing.T) {
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"sweep-000001","state":"queued"}`))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer ts.Close()
	defer close(stop)

	begin := time.Now()
	_, stderr, code := runCohsim(t, "sweep", "-server", ts.URL, "-timeout", "300ms",
		"-axis", "seed=1", "-objective", "grid:value", "-out", t.TempDir())
	if took := time.Since(begin); took > 2*time.Second {
		t.Fatalf("sweep returned after %s; want the 300ms timeout to end it", took)
	}
	if code != 1 || !strings.Contains(stderr, "timed out") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with a timeout error", code, stderr)
	}
}
