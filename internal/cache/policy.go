package cache

import (
	"fmt"
	"strings"
)

// Policy selects a replacement algorithm. Policies are a closed enum —
// the per-access paths dispatch on a small switch, never through an
// interface — and all metadata lives in the Cache's own set store (see
// the fields on Cache), so policy state can never alias across caches.
type Policy uint8

const (
	// PolicyLRU is true least-recently-used via per-line recency stamps,
	// the historical default for every cache level.
	PolicyLRU Policy = iota
	// PolicyTreePLRU approximates LRU with a binary decision tree per
	// set (one bit per internal node), as real LLCs do. Requires
	// power-of-two associativity.
	PolicyTreePLRU
	// PolicySRRIP is static re-reference interval prediction: a 2-bit
	// RRPV per line, hits promote to 0, fills insert at "long" (2),
	// victims are the first way at "distant" (3) after aging.
	PolicySRRIP
	// PolicyBRRIP is bimodal RRIP: like SRRIP but fills insert at
	// "distant" (3) except for a deterministic 1-in-32 trickle at
	// "long", which makes the policy thrash-resistant.
	PolicyBRRIP
)

// RRIP constants: 2-bit re-reference prediction values.
const (
	maxRRPV         = 3 // "distant": the eviction candidate value
	srripInsertRRPV = 2 // "long": SRRIP's insertion age
	// brripLongEvery is the deterministic bimodal period: every N-th
	// fill inserts at "long" instead of "distant". A counter, not an
	// RNG draw, so identical access streams always produce identical
	// eviction streams (the repo-wide byte-identity bar).
	brripLongEvery = 32
)

// PolicyInfo describes one registered replacement policy.
type PolicyInfo struct {
	Policy      Policy
	Name        string
	Description string
	// aliases are additional accepted spellings (upper-cased).
	aliases []string
}

// policyTable is the registry, in registration order. Lookups are
// case-insensitive over Name and aliases.
var policyTable = []PolicyInfo{
	{PolicyLRU, "LRU", "true least-recently-used (per-line recency stamps); the default", nil},
	{PolicyTreePLRU, "tree-PLRU", "binary-decision-tree pseudo-LRU, one bit per node (power-of-two ways)", []string{"PLRU", "TREEPLRU", "TREE_PLRU"}},
	{PolicySRRIP, "SRRIP", "static re-reference interval prediction (2-bit RRPV, insert at long)", nil},
	{PolicyBRRIP, "BRRIP", "bimodal RRIP (insert at distant with a 1/32 long trickle; thrash-resistant)", []string{"BIP-RRIP"}},
}

// String returns the policy's canonical registry name.
func (p Policy) String() string {
	for _, info := range policyTable {
		if info.Policy == p {
			return info.Name
		}
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// CheckGeometry reports whether the policy can manage a cache of the
// given shape. Tree-PLRU's decision tree needs power-of-two ways.
func (p Policy) CheckGeometry(geo Geometry) error {
	if p == PolicyTreePLRU && geo.Ways&(geo.Ways-1) != 0 {
		return fmt.Errorf("cache: tree-PLRU requires power-of-two associativity, got %d ways", geo.Ways)
	}
	return nil
}

// Policies returns the registered policies in registration order.
func Policies() []PolicyInfo {
	out := make([]PolicyInfo, len(policyTable))
	copy(out, policyTable)
	return out
}

// PolicyNames returns the canonical policy names in registration order.
func PolicyNames() []string {
	out := make([]string, 0, len(policyTable))
	for _, info := range policyTable {
		out = append(out, info.Name)
	}
	return out
}

// PolicyFor resolves a policy by registry name, case-insensitively. The
// empty string means LRU (the historical default), mirroring how the
// coherence registry treats an empty protocol name.
func PolicyFor(name string) (Policy, error) {
	key := strings.ToUpper(strings.TrimSpace(name))
	if key == "" {
		return PolicyLRU, nil
	}
	for _, info := range policyTable {
		if strings.ToUpper(info.Name) == key {
			return info.Policy, nil
		}
		for _, al := range info.aliases {
			if al == key {
				return info.Policy, nil
			}
		}
	}
	return PolicyLRU, fmt.Errorf("cache: unknown replacement policy %q (registered: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// lruVictim picks the way with the oldest recency stamp, preferring
// invalid ways. It is the devirtualized fast path for the default
// policy; Insert calls it directly when the policy is PolicyLRU.
func lruVictim(set []Line) int {
	victim := 0
	var best uint32
	first := true
	for i := range set {
		if !set[i].Valid() {
			return i
		}
		if first || set[i].lru < best {
			best = set[i].lru
			victim = i
			first = false
		}
	}
	return victim
}

// plruTouch returns the set's tree bits updated so every node on way's
// root path points away from way (bit set = victim search goes right).
func plruTouch(bits uint64, ways, way int) uint64 {
	node, lo, hi := 0, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << uint(node) // point right (away)
			node = 2*node + 1
			hi = mid
		} else {
			bits &^= 1 << uint(node) // point left (away)
			node = 2*node + 2
			lo = mid
		}
	}
	return bits
}

// plruVictim walks the tree bits from the root to the pointed-at way.
func plruVictim(bits uint64, ways int) int {
	node, lo, hi := 0, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<uint(node)) != 0 {
			node = 2*node + 2 // bit set: go right
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}
