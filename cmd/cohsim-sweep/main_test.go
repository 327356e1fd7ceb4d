package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

	anon := client{server: ts.URL}
	if _, err := anon.submit(spec); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("submit without a key = %v, want 401", err)
	}

	c := client{server: ts.URL, key: testKey}
	id, err := c.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lastID := -1
	if _, err := anon.streamOnce(id, &lastID); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("events without a key = %v, want 401", err)
	}
	if _, _, err := anon.waitTerminal(id, time.Second); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("status without a key = %v, want 401", err)
	}
	if _, err := anon.fetchFrontier(id); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("frontier without a key = %v, want 401", err)
	}

	if err := c.followEvents(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	state, msg, err := c.waitTerminal(id, 30*time.Second)
	if err != nil || state != "done" {
		t.Fatalf("sweep ended %q (%q), %v; want done", state, msg, err)
	}
	tsv, err := c.fetchFrontier(id)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Split(strings.TrimSpace(string(tsv)), "\n"); len(rows) != 3 || !strings.Contains(rows[1], "200") {
		t.Fatalf("frontier:\n%s\nwant a header and 2 ranked points, seed 2 (score 200) first", tsv)
	}
}
