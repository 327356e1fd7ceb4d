package service

import (
	"strings"
	"testing"
)

// TestTenantMetricsSeries pins the per-tenant Prometheus exposition:
// admissions, 429s split by reason, cell outcomes and the lane-depth
// gauge all render one series per tenant, sorted by tenant name.
func TestTenantMetricsSeries(t *testing.T) {
	m := NewMetrics()
	m.TenantJobAccepted("alice")
	m.TenantJobAccepted("alice")
	m.TenantJobAccepted("bob")
	m.TenantJobRejected("alice", "quota")
	m.TenantJobRejected("bob", "queue-full")
	m.TenantCell("alice", false, false) // executed
	m.TenantCell("alice", true, false)  // cached
	m.TenantCell("bob", false, true)    // failed

	var sb strings.Builder
	m.WriteTo(&sb, Gauges{TenantQueueDepth: map[string]int{"alice": 3, "bob": 0}})
	out := sb.String()

	for _, want := range []string{
		`cohsimd_tenant_jobs_accepted_total{tenant="alice"} 2`,
		`cohsimd_tenant_jobs_accepted_total{tenant="bob"} 1`,
		`cohsimd_tenant_jobs_rejected_total{tenant="alice",reason="quota"} 1`,
		`cohsimd_tenant_jobs_rejected_total{tenant="alice",reason="queue-full"} 0`,
		`cohsimd_tenant_jobs_rejected_total{tenant="bob",reason="queue-full"} 1`,
		`cohsimd_tenant_cells_total{tenant="alice",outcome="executed"} 1`,
		`cohsimd_tenant_cells_total{tenant="alice",outcome="cached"} 1`,
		`cohsimd_tenant_cells_total{tenant="bob",outcome="failed"} 1`,
		`cohsimd_tenant_queue_depth{tenant="alice"} 3`,
		`cohsimd_tenant_queue_depth{tenant="bob"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Deterministic ordering: alice's series render before bob's.
	if strings.Index(out, `accepted_total{tenant="alice"}`) > strings.Index(out, `accepted_total{tenant="bob"}`) {
		t.Error("tenant series are not sorted by name")
	}
	// A tenant known only to the gauges still gets counter series (all
	// zero), so dashboards never see partial label sets.
	var sb2 strings.Builder
	m.WriteTo(&sb2, Gauges{TenantQueueDepth: map[string]int{"carol": 1}})
	if !strings.Contains(sb2.String(), `cohsimd_tenant_jobs_accepted_total{tenant="carol"} 0`) {
		t.Error("gauge-only tenant missing from counter series")
	}
}

// TestQueueWaitHistogram pins the queue-wait series: one observation
// per job that starts running, bucketed like cell times.
func TestQueueWaitHistogram(t *testing.T) {
	m := NewMetrics()
	m.JobStarted(0.0002) // started at submit from the store
	m.JobStarted(2)      // waited behind a running job
	var sb strings.Builder
	m.WriteTo(&sb, Gauges{})
	out := sb.String()
	for _, want := range []string{
		"# HELP cohsimd_job_queue_wait_seconds Time from submit until a job starts running",
		"# TYPE cohsimd_job_queue_wait_seconds histogram",
		`cohsimd_job_queue_wait_seconds_bucket{le="0.001"} 1`,
		`cohsimd_job_queue_wait_seconds_bucket{le="2.5"} 2`,
		"cohsimd_job_queue_wait_seconds_sum 2.0002",
		"cohsimd_job_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
