// Package client is the one HTTP client for the cohsimd API: JSON calls
// with an optional tenant bearer key, and a resuming Server-Sent Events
// reader. The sweep CLI, the capacity harness and the dispatch worker
// all talk to the daemon through it.
//
// It deliberately does not import internal/service (service imports
// dispatch, whose worker uses this package); callers decode the
// service's wire types themselves.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one daemon. Deadlines come from each call's context.
type Client struct {
	// Server is the daemon's base URL, e.g. http://localhost:8080.
	Server string
	// Key is the tenant API key sent as a bearer token; empty sends no
	// Authorization header.
	Key string
	// HTTP issues the requests; nil uses http.DefaultClient, which has
	// no overall timeout (long polls hold their connection open).
	HTTP *http.Client
}

// StatusError is a non-2xx answer.
type StatusError struct {
	Code int
	// Msg is the first line of the answer's body.
	Msg string
	// RetryAfter is the parsed Retry-After header; 0 when absent.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	s := strconv.Itoa(e.Code) + " " + http.StatusText(e.Code)
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	return s
}

// Retryable reports whether a request that failed with err is worth
// repeating: a transport error, a 429 or a 5xx is; any other 4xx (a
// wrong key, an id the daemon does not know) is not.
func Retryable(err error) bool {
	var se *StatusError
	return !errors.As(err, &se) || se.Code >= 500 || se.Code == http.StatusTooManyRequests
}

// Call sends in (JSON-encoded unless nil) to path and returns the answer's
// status. A 2xx answer other than 204 is decoded into a non-nil out; an
// out of type *[]byte receives the body as is. A non-2xx answer returns
// its status and a *StatusError.
func (c Client) Call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	resp, err := c.do(ctx, method, path, body, "")
	if se, ok := err.(*StatusError); ok {
		return se.Code, err
	} else if err != nil {
		return 0, err
	}
	defer drain(resp)
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return resp.StatusCode, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// streamRetry spaces reconnects.
const streamRetry = 500 * time.Millisecond

// Stream follows the SSE stream at path, handing each event's data to fn
// until fn returns true. A dropped connection, a 429 or a 5xx reconnects
// with Last-Event-ID set to the last delivered event's id, so no event is
// delivered twice; any other 4xx fails at once.
func (c Client) Stream(ctx context.Context, path string, fn func(data []byte) bool) error {
	lastID := ""
	for {
		done, err := c.streamOnce(ctx, path, &lastID, fn)
		if done {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !Retryable(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(streamRetry):
		}
	}
}

func (c Client) streamOnce(ctx context.Context, path string, lastID *string, fn func([]byte) bool) (bool, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil, *lastID)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var id string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			if data != nil {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
		case line == "" && data != nil:
			if id != "" {
				*lastID = id
			}
			if fn(data) {
				return true, nil
			}
			id, data = "", nil
		}
	}
	return false, sc.Err()
}

// do sends one request, with Last-Event-ID when lastEventID is set, and
// turns a non-2xx answer into a *StatusError.
func (c Client) do(ctx context.Context, method, path string, body io.Reader, lastEventID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Server+path, body)
	if err != nil {
		return nil, err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Key != "" {
		req.Header.Set("Authorization", "Bearer "+c.Key)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer drain(resp)
	se := &StatusError{Code: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se.Msg, _, _ = strings.Cut(strings.TrimSpace(string(b)), "\n")
	return nil, se
}

// drain reads what is left of a body before closing it, so the
// connection can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
