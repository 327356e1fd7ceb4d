package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"coherentleak/internal/service"
)

// daemon is an in-process service served over a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error // Serve's return
}

// startDaemon builds the service and starts serving it on 127.0.0.1.
func startDaemon(opts service.Options) (*daemon, error) {
	svc, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Shutdown(context.Background()))
	}
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains the service, then stops the listener and every open
// connection, and waits for Serve to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	err = errors.Join(err, d.srv.Close())
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// client is one closed-loop caller of the daemon's HTTP API.
type client struct {
	base string
	key  string // bearer key; empty sends none
	http *http.Client
	rt   *timingTransport
}

func newClient(base, key string, rec *Recorder) *client {
	rt := &timingTransport{next: &http.Transport{MaxIdleConnsPerHost: 4}, rec: rec}
	return &client{base: base, key: key, http: &http.Client{Transport: rt}, rt: rt}
}

func (c *client) closeIdle() { c.rt.next.CloseIdleConnections() }

// errRefused marks a 429: the daemon refused the operation.
var errRefused = errors.New("refused with 429")

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	return c.http.Do(req)
}

// postJSON posts body and decodes a 2xx reply into out.
func (c *client) postJSON(path string, body []byte, out any) error {
	resp, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return errRefused
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// get fetches path and returns the body of a 200 reply.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// follow reads an SSE stream until an event for which last returns true,
// handing every event's type and data to each. The stream replays its
// history first, so following after submit misses nothing.
func (c *client) follow(path string, each func(typ string, data []byte) (last bool, err error)) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			last, err := each(typ, []byte(strings.TrimPrefix(line, "data: ")))
			if err != nil || last {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended before its final event", path)
}

// jobList decodes a GET /v1/jobs reply.
func jobList(b []byte) ([]service.View, error) {
	var l struct {
		Jobs []service.View `json:"jobs"`
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("job list: %w", err)
	}
	return l.Jobs, nil
}

// metricsText scrapes the daemon's Prometheus endpoint into a map from
// series (name plus labels) to value.
func (c *client) metricsText() (map[string]float64, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// series sums every series of one metric name across its labels.
func series(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// timingTransport times every request's round trip (to the response
// headers) by method and path shape. Operations named in spans also
// record a span under that name when tracing.
type timingTransport struct {
	next  *http.Transport
	rec   *Recorder
	spans map[string]string // op -> span name
	// onBody, when set, sees each request body before it is sent.
	onBody func(path string, body []byte)

	mu    sync.Mutex
	byOp  map[string][]float64 // milliseconds
	count int
}

// opOf names a request by method and path with IDs elided, e.g.
// "POST /v1/workers/*/lease".
func opOf(r *http.Request) string {
	parts := strings.Split(r.URL.Path, "/")
	for i, p := range parts {
		if strings.HasPrefix(p, "job-") || strings.HasPrefix(p, "sweep-") || strings.HasPrefix(p, "w-") {
			parts[i] = "*"
		}
	}
	return r.Method + " " + strings.Join(parts, "/")
}

// RoundTrip passes straight through when not tracing.
func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.rec == nil {
		return t.next.RoundTrip(r)
	}
	if t.onBody != nil && r.Body != nil {
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		t.onBody(r.URL.Path, b)
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	end := time.Now()
	op := opOf(r)
	if name := t.spans[op]; name != "" {
		t.rec.Add(0, name, r.URL.Path, start, end)
	}
	t.mu.Lock()
	if t.byOp == nil {
		t.byOp = make(map[string][]float64)
	}
	t.byOp[op] = append(t.byOp[op], ms(end.Sub(start)))
	t.count++
	t.mu.Unlock()
	return resp, err
}

// samples returns the round-trip times recorded for op.
func (t *timingTransport) samples(op string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.byOp[op]...)
}

func (t *timingTransport) requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}
