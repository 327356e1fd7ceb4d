package covert

import (
	"fmt"

	"coherentleak/internal/cache"
	"coherentleak/internal/kernel"
)

// BuildSpyEvictionSet allocates pages in the spy's address space until it
// has collected one virtual address per LLC way whose physical line maps
// to the same LLC set as the shared block B — the conflict set whose
// traversal evicts B from the spy's socket ("eviction of all the ways in
// the set", §VI-B citing [12]).
//
// The construction uses the simulator's known physical frame layout; on
// real hardware the same set is found by timing-based group testing,
// which the cited prior work describes. The returned addresses are in
// the spy's private pages, so probing them needs no sharing.
func (s *Session) BuildSpyEvictionSet() ([]uint64, error) {
	llc := s.Mach.Socket(s.Mach.Core(s.SpyCore).Socket).LLC
	vas, _, err := conflictLines(s.SpyProc, llc, s.SharedPA(), llc.Geometry().Ways, nil, "conflict")
	return vas, err
}

// maxConflictPages bounds the pages one conflict-line search maps.
const maxConflictPages = 1_000_000

// conflictLines maps fresh pages into proc one Mmap(1) at a time until it
// holds n lines other than targetPA's own that fall in targetPA's set of
// c and pass keep (nil keeps all), and returns their VAs and PAs in
// discovery order. This is the ground-truth construction behind every
// conflict set: the simulator exposes its frame layout where real
// attackers use timing-based group testing.
//
// Each page visits only its lines in the target set (Cache.SetLines).
// what names the lines in the error when the search gives up.
func conflictLines(proc *kernel.Process, c *cache.Cache, targetPA uint64, n int, keep func(pa uint64) bool, what string) (vas, pas []uint64, err error) {
	target, own := c.SetIndexOf(targetPA), cache.LineAddr(targetPA)
	for tries := 0; len(vas) < n && tries < maxConflictPages; tries++ {
		va, err := proc.Mmap(1)
		if err != nil {
			return nil, nil, err
		}
		base, err := proc.Translate(va)
		if err != nil {
			return nil, nil, err
		}
		c.SetLines(base, base+kernel.PageSize, target, func(pa uint64) bool {
			if pa != own && (keep == nil || keep(pa)) {
				vas = append(vas, va+pa-base)
				pas = append(pas, pa)
			}
			return len(vas) < n
		})
	}
	if len(vas) < n {
		return nil, nil, fmt.Errorf("covert: found only %d/%d %s lines", len(vas), n, what)
	}
	return vas, pas, nil
}
