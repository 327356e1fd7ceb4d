package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// frames writes SSE frames for ids, "end" as the last one's data when
// last is set, and flushes them.
func frames(w http.ResponseWriter, ids []int, last bool) {
	for i, id := range ids {
		data := fmt.Sprint(id)
		if last && i == len(ids)-1 {
			data = "end"
		}
		fmt.Fprintf(w, "id: %d\nevent: point\ndata: %s\n\n", id, data)
	}
	w.(http.Flusher).Flush()
}

// collect follows path until the "end" event and returns every data.
func collect(ctx context.Context, c Client, path string) ([]string, error) {
	var got []string
	err := c.Stream(ctx, path, func(data []byte) bool {
		got = append(got, string(data))
		return string(data) == "end"
	})
	return got, err
}

// TestStreamResumesAfterDrop: a stream dropped after two frames
// reconnects with Last-Event-ID set to the last id: line seen and
// delivers the rest exactly once.
func TestStreamResumesAfterDrop(t *testing.T) {
	var mu sync.Mutex
	var resumes []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resumes = append(resumes, r.Header.Get("Last-Event-ID"))
		n := len(resumes)
		mu.Unlock()
		if n == 1 {
			frames(w, []int{1, 2}, false) // then drop the connection
			return
		}
		frames(w, []int{3, 4}, true)
	}))
	defer ts.Close()

	got, err := collect(context.Background(), Client{Server: ts.URL}, "/events")
	if err != nil {
		t.Fatal(err)
	}
	if want := "1 2 3 end"; strings.Join(got, " ") != want {
		t.Errorf("delivered %q, want %q", got, want)
	}
	if want := []string{"", "2"}; fmt.Sprint(resumes) != fmt.Sprint(want) {
		t.Errorf("Last-Event-ID per connection = %q, want %q", resumes, want)
	}
}

// TestStreamStatusHandling: 401 and 404 fail at once; 429 and 503 are
// retried until the stream answers.
func TestStreamStatusHandling(t *testing.T) {
	for _, tc := range []struct {
		code  int
		retry bool
	}{
		{http.StatusUnauthorized, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
	} {
		t.Run(fmt.Sprint(tc.code), func(t *testing.T) {
			var mu sync.Mutex
			calls := 0
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				calls++
				first := calls == 1
				mu.Unlock()
				if first || !tc.retry {
					http.Error(w, `{"error":"no"}`, tc.code)
					return
				}
				frames(w, []int{1}, true)
			}))
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got, err := collect(ctx, Client{Server: ts.URL}, "/events")
			mu.Lock()
			defer mu.Unlock()
			if tc.retry {
				if err != nil || calls != 2 || len(got) != 1 {
					t.Fatalf("err %v after %d calls, got %q; want the retry to deliver the stream", err, calls, got)
				}
				return
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != tc.code || calls != 1 {
				t.Fatalf("err %v after %d calls; want a %d StatusError at once", err, calls, tc.code)
			}
		})
	}
}

// TestCallStatusError: a non-2xx answer returns its status and a
// StatusError carrying the body's first line and the Retry-After.
func TestCallStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "queue full\nsecond line", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	var out struct{}
	code, err := Client{Server: ts.URL}.Call(context.Background(), http.MethodPost, "/v1/jobs", map[string]int{"a": 1}, &out)
	var se *StatusError
	if code != http.StatusTooManyRequests || !errors.As(err, &se) {
		t.Fatalf("Call = %d, %v; want 429 and a StatusError", code, err)
	}
	if se.Msg != "queue full" || se.RetryAfter != 3*time.Second {
		t.Fatalf("StatusError = %+v; want the first body line and a 3s Retry-After", se)
	}
}

// TestBearerHeader: with Key set every method and the stream send the
// bearer token; with Key empty no Authorization header is sent.
func TestBearerHeader(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // method -> Authorization values
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method] = r.Header.Values("Authorization")
		mu.Unlock()
		if r.URL.Path == "/events" {
			frames(w, []int{1}, true)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	ctx := context.Background()
	for _, key := range []string{"alice-key-123456", ""} {
		c := Client{Server: ts.URL, Key: key}
		for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			if _, err := c.Call(ctx, m, "/x", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Call(ctx, http.MethodPut, "/x", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := collect(ctx, c, "/events"); err != nil {
			t.Fatal(err)
		}
		want := "[]"
		if key != "" {
			want = "[Bearer " + key + "]"
		}
		mu.Lock()
		for m, got := range seen {
			if fmt.Sprint(got) != want {
				t.Errorf("key %q: %s sent Authorization %q, want %s", key, m, got, want)
			}
		}
		if len(seen) != 4 {
			t.Errorf("key %q: saw methods %v, want GET, POST, PUT and DELETE", key, seen)
		}
		clear(seen)
		mu.Unlock()
	}
}
