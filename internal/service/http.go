package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/replay"
	"coherentleak/internal/sweep"
	"coherentleak/internal/tenant"
	"coherentleak/internal/version"
)

// Handler builds the daemon's HTTP API:
//
//	GET    /healthz                            liveness (503 while draining)
//	GET    /metrics                            Prometheus text exposition
//	GET    /v1/artifacts                       registry listing with cell counts
//	GET    /v1/protocols                       registered coherence protocols
//	GET    /v1/replacements                    registered replacement policies
//	POST   /v1/jobs                            submit a job (202; 429 when full)
//	GET    /v1/jobs                            list jobs in submission order
//	GET    /v1/jobs/{id}                       one job's state and result links
//	DELETE /v1/jobs/{id}                       cancel (also POST /v1/jobs/{id}/cancel)
//	GET    /v1/jobs/{id}/events                Server-Sent Events progress stream
//	GET    /v1/jobs/{id}/artifacts/{file}      <artifact>.tsv or <artifact>.json
//	GET    /v1/version                         build identity
//	POST   /v1/sweeps                          submit a parameter sweep (202)
//	GET    /v1/sweeps                          list sweeps in submission order
//	GET    /v1/sweeps/{id}                     one sweep's state and frontier
//	DELETE /v1/sweeps/{id}                     cancel (also POST /v1/sweeps/{id}/cancel)
//	GET    /v1/sweeps/{id}/events              SSE per-point progress + frontier updates
//	GET    /v1/sweeps/{id}/frontier.tsv        ranked frontier (deterministic bytes)
//	GET    /v1/tenants/self                    the caller's quota and live usage
//
// The route table below is the one place that says which routes need
// a key: every job, sweep and tenant route is registered through
// authed, which requires "Authorization: Bearer <key>" when a tenant
// registry with keys is loaded and hands the handler the caller's
// tenant (the anonymous tenant without a keys file). Each tenant sees
// only its own jobs and sweeps. The infrastructure routes (healthz,
// metrics, version, the read-only artifact/protocol/replacement
// listings, and the worker-fleet protocol) are registered bare and
// stay open; a path or method no route serves gets the mux's 404/405.
//
// When dispatch is enabled the worker-fleet protocol mounts alongside:
// POST/GET /v1/workers, DELETE /v1/workers/{id}, and the per-worker
// lease / result / heartbeat routes (see internal/dispatch). Workers
// are operator-deployed infrastructure, not tenants.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /v1/replacements", s.handleReplacements)
	mux.HandleFunc("POST /v1/jobs", s.authed(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.authed(s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.authed(s.handleJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.authed(s.handleCancel))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.authed(s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.authed(s.handleEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{file}", s.authed(s.handleDownload))
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/sweeps", s.authed(s.handleSweepSubmit))
	mux.HandleFunc("GET /v1/sweeps", s.authed(s.handleSweeps))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.authed(s.handleSweep))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.authed(s.handleSweepCancel))
	mux.HandleFunc("POST /v1/sweeps/{id}/cancel", s.authed(s.handleSweepCancel))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.authed(s.handleSweepEvents))
	mux.HandleFunc("GET /v1/sweeps/{id}/frontier.tsv", s.authed(s.handleSweepFrontier))
	mux.HandleFunc("GET /v1/tenants/self", s.authed(s.handleTenantSelf))
	if s.fleet != nil {
		s.fleet.Routes(mux)
	}
	return mux
}

// authed wraps a tenant route: it authenticates the request against the
// tenant registry (401 + WWW-Authenticate on a missing or unknown key)
// and passes the caller's tenant to h.
func (s *Service) authed(h func(http.ResponseWriter, *http.Request, *tenant.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.opts.Tenants.Authenticate(r.Header.Get("Authorization"))
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="cohsimd"`)
			writeJSON(w, http.StatusUnauthorized, apiError{Error: err.Error()})
			return
		}
		h(w, r, tn)
	}
}

// decodeStrict decodes one JSON document from r into v, rejecting
// unknown fields: the submit bodies and config overrides are all
// decoded this way, so a typo is a 400 instead of a silent default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// admissionError is the 429 body: the caller's own queue depth and a
// Retry-After derived from that tenant's backlog, not the global
// queue — under fair queueing another tenant's pile-up says nothing
// about how long this caller must wait.
type admissionError struct {
	Error             string `json:"error"`
	Tenant            string `json:"tenant"`
	QueueDepth        int    `json:"queueDepth"`
	RetryAfterSeconds int    `json:"retryAfterSeconds"`
}

// writeAdmissionError renders a 429 with the per-tenant Retry-After in
// both the header and the body.
func (s *Service) writeAdmissionError(w http.ResponseWriter, tn *tenant.Tenant, err error) {
	retry := retryAfterSeconds(s.RetryAfterTenant(tn.Name))
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusTooManyRequests, admissionError{
		Error:             err.Error(),
		Tenant:            tn.Name,
		QueueDepth:        s.QueueDepth(tn.Name),
		RetryAfterSeconds: retry,
	})
}

// retryAfterSeconds renders a Retry-After hint, rounding UP: truncation
// would turn a sub-second (or 1.9s) estimate into a hint that tells
// clients to hammer the queue sooner than the backlog can drain.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.Gauges())
}

// artifactInfo is one registry entry in the listing.
type artifactInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	File        string `json:"file"`
	Header      string `json:"header"`
	QuickCells  int    `json:"quickCells"`
	FullCells   int    `json:"fullCells"`
}

func (s *Service) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	cfg := machine.DefaultConfig()
	var out []artifactInfo
	for _, a := range s.opts.Registry.Artifacts() {
		info := artifactInfo{
			Name:        a.Name,
			Description: a.Description,
			File:        a.File,
			Header:      a.Header,
		}
		// Cell planning is cheap (no cell bodies run), so the listing
		// can report the decomposition width per sizing.
		for _, sz := range []harness.Sizing{harness.SizingQuick, harness.SizingFull} {
			if cells, err := a.Cells(harness.Plan{Cfg: cfg, Seed: s.opts.DefaultSeed, Sizing: sz}); err == nil {
				if sz == harness.SizingQuick {
					info.QuickCells = len(cells)
				} else {
					info.FullCells = len(cells)
				}
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": out})
}

// protocolInfo is one coherence-protocol registry entry in the listing.
type protocolInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// States are the protocol's legal states as single-letter names.
	States []string `json:"states"`
	// SilentUpgrades reports whether the protocol permits the silent
	// clean-to-dirty upgrade the paper's channel is built on.
	SilentUpgrades bool `json:"silentUpgrades"`
	// Default marks the protocol jobs get when their config override
	// names none.
	Default bool `json:"default"`
}

// replacementInfo is one row of GET /v1/replacements.
type replacementInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Default marks the policy jobs get when their config override
	// names none.
	Default bool `json:"default"`
}

// handleReplacements lists the registered cache replacement policies —
// the names a job's config override may set as "Replacement".
func (s *Service) handleReplacements(w http.ResponseWriter, r *http.Request) {
	def := machine.DefaultConfig().ReplacementPolicy()
	var out []replacementInfo
	for _, info := range cache.Policies() {
		out = append(out, replacementInfo{
			Name:        info.Name,
			Description: info.Description,
			Default:     info.Policy == def,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"replacements": out})
}

// handleProtocols lists the registered coherence protocols — the names a
// job's config override may set as "Protocol".
func (s *Service) handleProtocols(w http.ResponseWriter, r *http.Request) {
	def, _ := coherence.SpecFor(machine.DefaultConfig().Protocol)
	var out []protocolInfo
	for _, p := range coherence.Protocols() {
		spec := coherence.MustSpec(p)
		info := protocolInfo{
			Name:           spec.Name(),
			Description:    spec.Description(),
			SilentUpgrades: spec.SilentUpgrades(),
			Default:        def != nil && spec.Name() == def.Name(),
		}
		for _, st := range spec.States() {
			if st.Valid() {
				info.States = append(info.States, st.String())
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"protocols": out})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	var req SubmitRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "request body: " + err.Error()})
		return
	}
	job, err := s.Submit(tn, &req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuota):
		s.writeAdmissionError(w, tn, err)
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	v, _ := s.JobView(tn, job.ID)
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.JobViews(tn)})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	v, ok := s.JobView(tn, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	id := r.PathValue("id")
	if !s.Cancel(tn, id) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	v, _ := s.JobView(tn, id)
	writeJSON(w, http.StatusOK, v)
}

// handleTenantSelf reports the caller's identity, quotas and live
// usage — what a client consults to understand its own 429s.
func (s *Service) handleTenantSelf(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	writeJSON(w, http.StatusOK, s.TenantSelf(tn))
}

// handleEvents streams a job's progress as Server-Sent Events. The
// per-job history replays first (so late subscribers see every cell),
// then live events follow until the job reaches a terminal state or the
// client disconnects. A reconnecting subscriber sends Last-Event-ID
// (the standard SSE header, mirroring the id: field we emit) and
// resumes from the next event instead of replaying the full history.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	history, ch, unsub, ok := s.Subscribe(tn, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	defer unsub()
	serveSSE(w, r, history, ch,
		func(ev Event) (int, string) { return ev.Seq, ev.Type },
		func(ev Event) bool { return ev.Type == "state" && ev.State.Terminal() })
}

// serveSSE is the shared Server-Sent Events writer behind the job and
// sweep streams: replay history (skipping past Last-Event-ID on
// reconnect), then follow the live channel until the stream's final
// event, the subscriber is evicted, or the client disconnects. Frames
// carry id: (the event's sequence number), event: (its type) and a
// JSON data: payload.
func serveSSE[E any](w http.ResponseWriter, r *http.Request, history []E, ch chan E, ident func(E) (seq int, typ string), last func(E) bool) {
	lastSeen := -1
	if v := strings.TrimSpace(r.Header.Get("Last-Event-ID")); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			lastSeen = n
		}
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(ev E) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		seq, typ := ident(ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, typ, data)
		if canFlush {
			flusher.Flush()
		}
		return !last(ev)
	}
	for _, ev := range history {
		if seq, _ := ident(ev); seq <= lastSeen {
			continue
		}
		if !write(ev) {
			return
		}
	}
	if ch == nil {
		return
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleVersion reports the daemon binary's build identity.
func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}

// handleSweepSubmit admits a parameter sweep. The body is a sweep.Spec;
// the whole grid is validated (including every point's config) before
// anything is accepted.
func (s *Service) handleSweepSubmit(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	var spec sweep.Spec
	if err := decodeStrict(r.Body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "request body: " + err.Error()})
		return
	}
	sw, err := s.SubmitSweep(tn, spec)
	switch {
	case errors.Is(err, ErrQuota):
		s.writeAdmissionError(w, tn, err)
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	v, _ := s.SweepView(tn, sw.ID)
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Service) handleSweeps(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": s.SweepViews(tn)})
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	v, ok := s.SweepView(tn, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleSweepCancel(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	id := r.PathValue("id")
	if !s.CancelSweep(tn, id) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep"})
		return
	}
	v, _ := s.SweepView(tn, id)
	writeJSON(w, http.StatusOK, v)
}

// handleSweepEvents streams sweep progress (point completions, backoff
// notices, frontier updates) over SSE with the same history-replay and
// Last-Event-ID resume semantics as job streams.
func (s *Service) handleSweepEvents(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	history, ch, unsub, ok := s.SubscribeSweep(tn, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep"})
		return
	}
	defer unsub()
	serveSSE(w, r, history, ch,
		func(ev SweepEvent) (int, string) { return ev.Seq, ev.Type },
		func(ev SweepEvent) bool { return ev.Type == "state" && ev.State.Terminal() })
}

// handleSweepFrontier serves the sweep's ranked frontier as TSV. The
// bytes are deterministic for a fixed spec + seed regardless of how the
// points were scheduled.
func (s *Service) handleSweepFrontier(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	tsv, ok := s.SweepFrontierTSV(tn, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep"})
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="frontier.tsv"`)
	w.Write(tsv)
}

// handleDownload serves an assembled artifact as TSV (byte-identical to
// the cmd/experiments file output) or as a versioned replay JSON record.
func (s *Service) handleDownload(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	id, file := r.PathValue("id"), r.PathValue("file")
	name, ext, ok := strings.Cut(file, ".")
	if !ok || name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "want <artifact>.tsv or <artifact>.json"})
		return
	}
	res, found := s.Result(tn, id, name)
	if !found {
		if _, jobExists := s.JobView(tn, id); !jobExists {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		} else {
			writeJSON(w, http.StatusNotFound, apiError{Error: "no assembled result for artifact " + name + " (job still running, cancelled early, or artifact not requested)"})
		}
		return
	}
	switch ext {
	case "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="`+res.Artifact.File+`"`)
		w.Write(res.TSV())
	case "json":
		w.Header().Set("Content-Type", "application/json")
		replay.SaveArtifact(w, harness.NewArtifactRecord(res))
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: "unknown extension ." + ext + " (want .tsv or .json)"})
	}
}
