package coherence

import (
	"fmt"
	"math/bits"
)

// Census classifies a line the way the paper's §VI-A service-path logic
// does, from the population count of the core-valid bits the LLC keeps
// per line: one valid bit means the line is in E/M in some private cache
// and the miss must be forwarded to the owner; two or more mean the line
// is in S and the LLC's clean copy can answer directly. This is exactly
// the information the covert channel abuses.
type Census uint8

const (
	// CensusNone: no private cache holds the line.
	CensusNone Census = iota
	// CensusOwned: exactly one private cache holds it (E or M there).
	CensusOwned
	// CensusShared: two or more private caches hold it (S everywhere).
	CensusShared
)

func (c Census) String() string {
	switch c {
	case CensusNone:
		return "none"
	case CensusOwned:
		return "owned"
	case CensusShared:
		return "shared"
	default:
		return fmt.Sprintf("Census(%d)", uint8(c))
	}
}

// CensusOf returns the census of a core-valid bit vector (bit i set
// means private cache i holds the line).
func CensusOf(sharers uint64) Census {
	switch n := bits.OnesCount64(sharers); {
	case n == 0:
		return CensusNone
	case n == 1:
		return CensusOwned
	default:
		return CensusShared
	}
}
