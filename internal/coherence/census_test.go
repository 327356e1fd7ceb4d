package coherence

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// Property: census is a pure function of sharer count.
func TestCensusConsistency(t *testing.T) {
	f := func(mask uint64) bool {
		switch n := bits.OnesCount64(mask); {
		case n == 0:
			return CensusOf(mask) == CensusNone
		case n == 1:
			return CensusOf(mask) == CensusOwned
		default:
			return CensusOf(mask) == CensusShared
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, mask := range []uint64{0, 1, 1 << 63, 3, ^uint64(0)} {
		if !f(mask) {
			t.Fatalf("CensusOf(%#x) = %v", mask, CensusOf(mask))
		}
	}
}
