// Package tenant is the multi-tenant layer in front of the cohsimd job
// API: API-key authentication from a keys file, per-tenant quotas (jobs
// in flight, pending sweep points, per-sweep point budget), and a
// weighted fair queue that sits in front of the daemon's admission
// control so one tenant's 300-point sweep cannot head-of-line-block
// another tenant's single job.
//
// With no keys file the daemon runs in anonymous mode: every caller is
// the same built-in "anonymous" tenant with unbounded quotas, which is
// byte-for-byte the pre-tenant behavior, except that the service caps
// an anonymous sweep at the sweep engine's default point budget.
package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// AnonymousName is the tenant every request maps to when authentication
// is disabled.
const AnonymousName = "anonymous"

// ErrUnauthorized rejects a request whose bearer key is missing or
// unknown (HTTP 401).
var ErrUnauthorized = errors.New("tenant: missing or unknown API key")

// Quotas bounds one tenant's load on the daemon. Zero means unbounded.
type Quotas struct {
	// MaxInFlight bounds jobs admitted and not yet terminal
	// (queued + running), including jobs submitted on the tenant's
	// behalf by its sweeps.
	MaxInFlight int `json:"maxInFlight,omitempty"`
	// MaxQueuedPoints bounds pending (not yet finished) sweep points
	// across the tenant's active sweeps.
	MaxQueuedPoints int `json:"maxQueuedPoints,omitempty"`
	// SweepBudget caps the expanded point count of a single sweep.
	SweepBudget int `json:"sweepBudget,omitempty"`
}

// Tenant is one API-key principal. Tenants are immutable after load.
type Tenant struct {
	// Name identifies the tenant in views, metrics labels and logs.
	Name string `json:"name"`
	// Key is the bearer token; never rendered back out in views.
	Key string `json:"key"`
	// Weight is the tenant's fair-queue share; jobs drain proportional
	// to it. Omitted or zero means 1.
	Weight int `json:"weight,omitempty"`
	Quotas
}

// keysFile is the on-disk format: {"tenants":[{...}, ...]}.
type keysFile struct {
	Tenants []*Tenant `json:"tenants"`
}

// Registry resolves bearer keys to tenants. It is immutable after
// construction, so no locking is needed on the request path.
type Registry struct {
	order []*Tenant
	byKey map[string]*Tenant
	// anonymous is non-nil in anonymous mode (no keys file): every
	// request maps to it and authentication is not required.
	anonymous *Tenant
}

// Open returns an anonymous-mode registry: authentication disabled,
// every caller the same unbounded tenant.
func Open() *Registry {
	return &Registry{anonymous: &Tenant{Name: AnonymousName, Weight: 1}}
}

// Load reads and validates a keys file. The file enables
// authentication: requests must carry a known bearer key.
func Load(path string) (*Registry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: keys file: %w", err)
	}
	var f keysFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tenant: keys file %s: %w", path, err)
	}
	return New(f.Tenants)
}

// New builds a registry from explicit tenants (the keys-file loader and
// tests both land here). Names and keys must be unique; weights default
// to 1; quotas must be non-negative.
func New(tenants []*Tenant) (*Registry, error) {
	if len(tenants) == 0 {
		return nil, errors.New("tenant: keys file defines no tenants")
	}
	r := &Registry{byKey: make(map[string]*Tenant, len(tenants))}
	names := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		switch {
		case t == nil:
			return nil, fmt.Errorf("tenant: entry %d is null", i)
		case t.Name == "":
			return nil, fmt.Errorf("tenant: entry %d has no name", i)
		case t.Name == AnonymousName:
			return nil, fmt.Errorf("tenant: %q is reserved for anonymous mode", AnonymousName)
		case t.Key == "":
			return nil, fmt.Errorf("tenant %s: empty key", t.Name)
		case len(t.Key) < 8:
			return nil, fmt.Errorf("tenant %s: key shorter than 8 characters", t.Name)
		case t.Weight < 0:
			return nil, fmt.Errorf("tenant %s: negative weight %d", t.Name, t.Weight)
		case t.MaxInFlight < 0 || t.MaxQueuedPoints < 0 || t.SweepBudget < 0:
			return nil, fmt.Errorf("tenant %s: negative quota", t.Name)
		case names[t.Name]:
			return nil, fmt.Errorf("tenant: duplicate name %q", t.Name)
		}
		if _, dup := r.byKey[t.Key]; dup {
			return nil, fmt.Errorf("tenant %s: key already assigned to another tenant", t.Name)
		}
		cp := *t
		if cp.Weight == 0 {
			cp.Weight = 1
		}
		names[cp.Name] = true
		r.byKey[cp.Key] = &cp
		r.order = append(r.order, &cp)
	}
	return r, nil
}

// Enabled reports whether authentication is required (a keys file was
// loaded, as opposed to anonymous mode).
func (r *Registry) Enabled() bool { return r.anonymous == nil }

// Anonymous returns the anonymous tenant, or nil when authentication is
// enabled.
func (r *Registry) Anonymous() *Tenant { return r.anonymous }

// Tenants lists the registered tenants in file order (empty in
// anonymous mode).
func (r *Registry) Tenants() []*Tenant {
	out := make([]*Tenant, len(r.order))
	copy(out, r.order)
	return out
}

// Authenticate resolves an Authorization header value to a tenant. In
// anonymous mode every request (with or without a header) maps to the
// anonymous tenant. With authentication enabled, the header must be
// "Bearer <key>" with a registered key; anything else is
// ErrUnauthorized.
func (r *Registry) Authenticate(authorization string) (*Tenant, error) {
	if r.anonymous != nil {
		return r.anonymous, nil
	}
	scheme, key, found := strings.Cut(strings.TrimSpace(authorization), " ")
	if !found || !strings.EqualFold(scheme, "Bearer") {
		return nil, ErrUnauthorized
	}
	key = strings.TrimSpace(key)
	// Constant-time compare over the candidate bucket: the map lookup
	// reveals only existence timing, the compare never leaks a prefix.
	t, ok := r.byKey[key]
	if !ok || subtle.ConstantTimeCompare([]byte(t.Key), []byte(key)) != 1 {
		return nil, ErrUnauthorized
	}
	return t, nil
}
