package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"coherentleak/internal/service"
)

func TestDigestCheckCatchesFlippedByte(t *testing.T) {
	tsv := []byte("notation\tcomm\nRExcl\tremote\n")
	table := digestTable{"w": {"7": {"table1": sha(tsv)}}}
	if errs, ok := checkDigests(table, "w", 7, map[string]string{"table1": sha(tsv)}); !ok || len(errs) != 0 {
		t.Fatalf("matching output: committed=%v errs=%v", ok, errs)
	}
	flipped := append([]byte(nil), tsv...)
	flipped[3] ^= 1
	errs, ok := checkDigests(table, "w", 7, map[string]string{"table1": sha(flipped)})
	if !ok || len(errs) != 1 {
		t.Fatalf("flipped byte: committed=%v errs=%v, want one mismatch", ok, errs)
	}
	if errs, _ := checkDigests(table, "w", 7, map[string]string{}); len(errs) != 1 {
		t.Errorf("missing output: errs=%v, want one", errs)
	}
	if _, ok := checkDigests(table, "w", 8, nil); ok {
		t.Errorf("seed 8 has no committed digests")
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	if _, err := loadDigests(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorRatioCountsRefusedAndFailed drives one closed-loop client
// against a fake daemon that refuses every third submit with a 429 and
// reports a failed cell on every other accepted job.
func TestErrorRatioCountsRefusedAndFailed(t *testing.T) {
	var submits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n := submits.Add(1)
		if n%3 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(service.View{ID: fmt.Sprintf("job-%06d", n)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		failed := strings.HasSuffix(r.PathValue("id"), "1") || strings.HasSuffix(r.PathValue("id"), "5")
		cell := service.CellEvent{Artifact: "table1", Cell: "rows", Total: 1, Done: 1}
		state := service.StateDone
		if failed {
			cell.Error = "boom"
			state = service.StateFailed
		}
		for i, ev := range []service.Event{{Type: "cell", Cell: &cell}, {Type: "state", State: state}} {
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", i, ev.Type, b)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	e := &daemonEnv{r: &run{seed: 1}, times: map[string]jobTimes{}}
	c := newClient(srv.URL, "", nil)
	defer c.closeIdle()
	var u tenantResult
	// Submits 1..6: 3 and 6 refused; jobs 1 and 5 report a failed cell;
	// 2 and 4 succeed (cold jobs must execute every cell).
	if err := e.loop(c, false, 6, &u); err != nil {
		t.Fatal(err)
	}
	if u.attempted != 6 || u.failed != 4 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 4 (2 refused + 2 failed cells)", u.attempted, u.failed)
	}
	if got := errorRatio(u.failed, u.attempted); got != 4.0/6 {
		t.Errorf("errorRatio = %v, want %v", got, 4.0/6)
	}
	if len(u.errs) != 2 || len(u.latencyMS) != 4 {
		t.Errorf("errs=%v latencies=%d, want 2 failed-job errors and 4 latencies", u.errs, len(u.latencyMS))
	}
}
