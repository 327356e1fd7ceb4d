package kernel

import (
	"coherentleak/internal/mem"
	"coherentleak/internal/sim"
)

// KSM is the kernel same-page merging subsystem (§IV). A scan walks every
// MERGEABLE mapping in process start order, groups pages by content, and
// remaps duplicates onto the earliest page's frame, marked read-only
// copy-on-write. Writes to a merged page fault and un-merge (cowBreak).
type KSM struct {
	kern *Kernel

	// Merged counts page mappings that were redirected to a canonical
	// frame across all scans.
	Merged int
	// Unmerged counts COW breaks of merged pages.
	Unmerged int
	// Scans counts completed full scans.
	Scans int

	// MaxPagesPerScan bounds the work of one scan (like Linux's
	// pages_to_scan); zero means unbounded.
	MaxPagesPerScan int
}

// Scan performs one full merge pass and returns the number of mappings
// merged by this pass.
func (s *KSM) Scan() int {
	k := s.kern
	cands := k.mergeCandidates()
	if s.MaxPagesPerScan > 0 && len(cands) > s.MaxPagesPerScan {
		cands = cands[:s.MaxPagesPerScan]
	}

	// canonical maps content hash -> candidates whose frame is the
	// surviving copy for that content. Hash collisions are resolved with
	// a byte comparison, as in the real KSM's stable tree.
	canonical := make(map[uint64][]pageRef)
	merged := 0

	for _, ref := range cands {
		cand := ref.pte()
		h := k.mem.ContentHash(cand.Frame)
		var target *PTE
		alreadyCanonical := false
		for _, cr := range canonical[h] {
			cc := cr.pte()
			if cc.Frame == cand.Frame {
				alreadyCanonical = true // mapping already shares the survivor
				break
			}
			if k.mem.SameContents(cc.Frame, cand.Frame) {
				target = cc
				break
			}
		}
		if alreadyCanonical {
			continue
		}
		if target == nil {
			canonical[h] = append(canonical[h], ref)
			continue
		}
		// Merge: cand's mapping is redirected onto target's frame; both
		// mappings become read-only COW; cand's old frame drops a ref.
		old := cand.Frame
		k.mem.AddRef(target.Frame)
		k.mem.Release(old)
		cand.Frame = target.Frame
		cand.Writable = false
		target.Writable = false
		k.mem.SetMergedByKSM(target.Frame, true)
		k.mapEpoch++
		merged++
	}
	s.Merged += merged
	s.Scans++
	return merged
}

// StartDaemon spawns the ksmd thread: a full scan every period cycles.
// The daemon runs until stopped (World.StopThread) or the world ends; use
// the returned thread handle to stop it.
func (s *KSM) StartDaemon(period sim.Cycles) *sim.Thread {
	return s.kern.world.Spawn("ksmd", func(t *sim.Thread) {
		for !t.StopRequested() {
			t.Advance(period)
			s.Scan()
		}
	})
}

// UnmergePage force-splits every mapping of the merged frame back to
// private copies — the paper's second mitigation (§VIII-E): "setup
// timeouts for KSM to un-merge shared pages with suspicious access
// patterns". Mappings split in process creation order then ascending
// page order; each split but the last copies the frame. It returns the
// number of mappings split.
func (s *KSM) UnmergePage(frame mem.Frame) int {
	k := s.kern
	split := 0
	for _, p := range k.procs {
		for i := range p.pages {
			pte := &p.pages[i]
			if pte.Frame == frame && k.mem.MergedByKSM(frame) {
				if err := k.cowBreak(pte); err != nil {
					continue
				}
				split++
			}
		}
	}
	return split
}
