package service

import (
	"bytes"
	"testing"

	"coherentleak/internal/experiments"
	"coherentleak/internal/sweep"
)

// FuzzSubmitJob decodes a POST /v1/jobs body the way handleSubmit does
// and builds its plan. Neither step may panic, and an accepted plan
// must carry a timeout in [0, MaxTimeout] and a valid machine config.
// The seeds are TestBadRequests' bodies, two accepted ones, and a
// timeout too large for a Duration.
func FuzzSubmitJob(f *testing.F) {
	for _, body := range []string{
		`{"artifacts":["nope"]}`,
		`{"sizing":"medium"}`,
		`{"timeoutSeconds":-1}`,
		`{"config":{"Bogus":1}}`,
		`{"config":{"Sockets":0}}`,
		`{"bogusField":1}`,
		`{"kernel":"compiled"}`,
		`{"artifacts":["table1"],"sizing":"quick","seed":7,"timeoutSeconds":30}`,
		`{"artifacts":["fig2"],"config":{"Protocol":"MOESI","Replacement":"srrip","Sockets":4}}`,
		`{"artifacts":["table1"],"timeoutSeconds":1e10}`,
	} {
		f.Add([]byte(body))
	}
	s := &Service{opts: Options{Registry: experiments.Artifacts()}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return
		}
		plan, _, timeout, err := s.buildPlan(&req)
		if err != nil {
			return
		}
		if timeout < 0 || timeout > s.opts.MaxTimeout {
			t.Fatalf("body %s: timeout %s outside [0, %s]", body, timeout, s.opts.MaxTimeout)
		}
		if err := plan.Cfg.Validate(); err != nil {
			t.Fatalf("body %s: accepted config fails validation: %v", body, err)
		}
	})
}

// FuzzSubmitSweep decodes a POST /v1/sweeps body the way
// handleSweepSubmit does and expands it. Expand may not panic and may
// never return more points than the spec's budget. The seeds are
// TestSweepSubmitValidation's bodies, an accepted grid, a random
// sampling spec, and a range axis of 5,000,000 steps.
func FuzzSubmitSweep(f *testing.F) {
	for _, body := range []string{
		`{"artifacts":["grid"],"axes":[{"param":"Latencies.Bogus","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
		`{"artifacts":["nope"],"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"nope","column":"value"}}`,
		`{"artifacts":["grid"],"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"other","column":"value"}}`,
		`{"artifacts":["grid"],"objective":{"artifact":"grid","column":"value"}}`,
		`{"artifacts":["grid"],"maxPoints":2,"axes":[{"param":"seed","values":[1,2,3,4]}],"objective":{"artifact":"grid","column":"value"}}`,
		`{"artifacts":["grid"],"bogus":true,"axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
		`{"artifacts":["grid"],"kernel":"interp","axes":[{"param":"seed","values":[1]}],"objective":{"artifact":"grid","column":"value"}}`,
		`{"artifacts":["grid"],"sizing":"quick","axes":[{"param":"Latencies.QPI","values":[40,60]},{"param":"seed","values":[1,2,3,4]}],"objective":{"artifact":"grid","column":"value"}}`,
		`{"strategy":"random","samples":8,"config":{"Sockets":4},"axes":[{"param":"Latencies.QPI","min":30,"max":90,"ints":true},{"param":"Protocol","values":["MESI","MOESI"]}],"objective":{"artifact":"fig2","column":"cycles","direction":"min"}}`,
		`{"axes":[{"param":"Latencies.QPI","min":1,"max":100,"steps":5000000}],"objective":{"artifact":"a","column":"c"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec sweep.Spec
		if err := decodeStrict(bytes.NewReader(body), &spec); err != nil {
			return
		}
		// A maxPoints above the default is the spec asking for that many
		// points, which a tenant's sweepBudget bounds at submit; keep each
		// fuzz run small by staying within the default.
		if spec.Budget() > sweep.DefaultMaxPoints {
			return
		}
		points, err := sweep.Expand(spec, 1)
		if err == nil && len(points) > spec.Budget() {
			t.Fatalf("body %s: %d points exceed the budget %d", body, len(points), spec.Budget())
		}
	})
}
