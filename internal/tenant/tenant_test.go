package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeKeys(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadKeysFile(t *testing.T) {
	path := writeKeys(t, `{"tenants":[
		{"name":"alice","key":"alice-key-1234","weight":2,"maxInFlight":8,"maxQueuedPoints":512,"sweepBudget":400},
		{"name":"bob","key":"bob-key-123456"}
	]}`)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enabled() {
		t.Fatal("a loaded keys file must enable authentication")
	}
	if r.Anonymous() != nil {
		t.Fatal("auth-enabled registry must have no anonymous tenant")
	}

	alice, err := r.Authenticate("Bearer alice-key-1234")
	if err != nil {
		t.Fatal(err)
	}
	if alice.Name != "alice" || alice.Weight != 2 || alice.MaxInFlight != 8 ||
		alice.MaxQueuedPoints != 512 || alice.SweepBudget != 400 {
		t.Fatalf("alice = %+v", alice)
	}
	bob, err := r.Authenticate("bearer bob-key-123456") // scheme is case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if bob.Weight != 1 {
		t.Fatalf("omitted weight must default to 1, got %d", bob.Weight)
	}
	if bob.MaxInFlight != 0 || bob.SweepBudget != 0 {
		t.Fatalf("omitted quotas must stay unbounded: %+v", bob.Quotas)
	}

	for _, bad := range []string{"", "Bearer nope", "Basic alice-key-1234", "alice-key-1234"} {
		if _, err := r.Authenticate(bad); err != ErrUnauthorized {
			t.Fatalf("Authenticate(%q) = %v, want ErrUnauthorized", bad, err)
		}
	}
}

func TestLoadKeysFileRejectsBadEntries(t *testing.T) {
	cases := map[string]string{
		"empty tenants":  `{"tenants":[]}`,
		"no name":        `{"tenants":[{"key":"long-enough-key"}]}`,
		"no key":         `{"tenants":[{"name":"a"}]}`,
		"short key":      `{"tenants":[{"name":"a","key":"short"}]}`,
		"padded key":     `{"tenants":[{"name":"a","key":" long-enough-key\t"}]}`,
		"reserved name":  `{"tenants":[{"name":"anonymous","key":"long-enough-key"}]}`,
		"duplicate name": `{"tenants":[{"name":"a","key":"long-enough-k1"},{"name":"a","key":"long-enough-k2"}]}`,
		"duplicate key":  `{"tenants":[{"name":"a","key":"long-enough-key"},{"name":"b","key":"long-enough-key"}]}`,
		"negative quota": `{"tenants":[{"name":"a","key":"long-enough-key","maxInFlight":-1}]}`,
		"unknown field":  `{"tenants":[{"name":"a","key":"long-enough-key","wieght":2}]}`,
	}
	for label, body := range cases {
		if _, err := Load(writeKeys(t, body)); err == nil {
			t.Errorf("%s: Load accepted %s", label, body)
		}
	}
}

func TestAnonymousMode(t *testing.T) {
	r := Open()
	if r.Enabled() {
		t.Fatal("Open() must be anonymous mode")
	}
	for _, hdr := range []string{"", "Bearer whatever", "garbage"} {
		tn, err := r.Authenticate(hdr)
		if err != nil {
			t.Fatalf("anonymous Authenticate(%q): %v", hdr, err)
		}
		if tn.Name != AnonymousName || tn.Weight != 1 {
			t.Fatalf("anonymous tenant = %+v", tn)
		}
		if tn.MaxInFlight != 0 || tn.MaxQueuedPoints != 0 || tn.SweepBudget != 0 {
			t.Fatalf("anonymous quotas must be unbounded: %+v", tn.Quotas)
		}
	}
	if got := r.Tenants(); len(got) != 0 {
		t.Fatalf("anonymous registry lists %d tenants, want 0", len(got))
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing keys file must be an error, not silent anonymous mode")
	}
}

func TestRegistryCopiesTenants(t *testing.T) {
	src := []*Tenant{{Name: "a", Key: "long-enough-key"}}
	r, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0].Weight = 99
	got, _ := r.Authenticate("Bearer long-enough-key")
	if got.Weight != 1 {
		t.Fatalf("registry aliases caller's tenant slice: weight = %d", got.Weight)
	}
	if !strings.Contains(ErrUnauthorized.Error(), "API key") {
		t.Fatal("ErrUnauthorized should mention API key for client clarity")
	}
}

// FuzzTenantLoad feeds arbitrary keys files to Load: it must never
// panic, and a registry it accepts must authenticate every one of its
// keys, as a "Bearer <key>" header, to that key's tenant.
func FuzzTenantLoad(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"alice","key":"alice-key-1234","weight":2,"maxInFlight":8},{"name":"bob","key":"bob-key-123456"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"long-enough-key","sweepBudget":400,"maxQueuedPoints":9}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"key with spaces"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":" padded-key-1 "}]}`))
	f.Add([]byte(`{"tenants":[]}`))
	f.Add([]byte(`{"tenants":[null]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"long-enough-key","wieght":2}]}`))
	f.Add([]byte(`null`))
	path := filepath.Join(f.TempDir(), "keys.json") // rewritten per input
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, body, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Load(path)
		if err != nil {
			return
		}
		tenants := r.Tenants()
		if !r.Enabled() || len(tenants) == 0 {
			t.Fatalf("accepted registry: enabled=%v with %d tenants", r.Enabled(), len(tenants))
		}
		for _, tn := range tenants {
			got, err := r.Authenticate("Bearer " + tn.Key)
			if err != nil || got != tn {
				t.Fatalf("tenant %q: Authenticate with its key %q = %+v, %v", tn.Name, tn.Key, got, err)
			}
			if tn.Weight < 1 {
				t.Fatalf("tenant %q: weight %d after load", tn.Name, tn.Weight)
			}
		}
	})
}
