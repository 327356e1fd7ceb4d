package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The pinned work. Artifacts are named here, never enumerated from the
// registry, so an artifact added to the program later leaves every
// workload's work unchanged.
var (
	// paperArtifacts are the fourteen paper artifacts, run at quick
	// sizing by paper-quick-cold.
	paperArtifacts = []string{
		"table1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "peaks", "mitigations", "capacity", "protomatrix",
		"lrustate", "dirtystate",
	}
	// hotArtifacts make the hot tenant's job: 21 millisecond-scale cells.
	hotArtifacts = []string{"table1", "fig2", "fig6", "fig7", "protomatrix", "lrustate"}
	// coldArtifacts make the cold tenant's job: 11 cells, about 20 ms.
	coldArtifacts = []string{"table1", "fig6", "fig11", "lrustate", "dirtystate"}
)

const (
	// sizing is the payload scale of every workload.
	sizing = "quick"
	// jobsPerClient is how many jobs each daemon-hot-cold client submits
	// in one unit.
	jobsPerClient = 250
	// minLatencySamples gives a p99 with at least minBeyond samples
	// beyond it.
	minLatencySamples = 100 * minBeyond
)

// paperSeed is the experiment seed of a paper-quick-cold unit: the run
// seed for the first unit of a cycle, far-apart seeds for the others.
func paperSeed(seed uint64, index int) uint64 { return seed + uint64(index)*1000003 }

// hotSeed and coldSeed derive the daemon tenants' experiment seeds from
// the run seed. Every unit reuses them, so units do identical work.
func hotSeed(seed uint64) uint64         { return seed }
func coldSeed(seed uint64, i int) uint64 { return seed + 1 + uint64(i) }

// sweepSpec is sweep-fleet-disk's capacity sweep for one unit:
// replacement policy x QPI latency x four seeds, 24 points of three
// cells. The unit at index i of a cycle sweeps seeds seed+4i .. seed+4i+3.
func sweepSpec(seed uint64, index int) string {
	seeds := make([]string, 4)
	for i := range seeds {
		seeds[i] = strconv.FormatUint(seed+uint64(4*index+i), 10)
	}
	return fmt.Sprintf(`{
		"name": "perfbench",
		"artifacts": ["capacity"],
		"sizing": %q,
		"axes": [
			{"param": "Replacement", "values": ["lru", "tree-plru"]},
			{"param": "Latencies.QPI", "values": [40, 60, 80]},
			{"param": "seed", "values": [%s]}
		],
		"objective": {"artifact": "capacity", "column": "info_kbps", "filter": {"noise": "8"}}
	}`, sizing, strings.Join(seeds, ", "))
}

// sweepPoints is the number of points sweepSpec expands to.
const sweepPoints = 2 * 3 * 4

// digestsJSON holds the committed SHA-256 digests of every output, by
// workload, then seed, then output name (an artifact, or "frontier").
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkDigests compares got (output name -> digest) against the
// committed digests for the workload and seed. It returns one error per
// mismatch and whether any digests were committed for that seed.
func checkDigests(t digestTable, workload string, seed uint64, got map[string]string) (errs []error, committed bool) {
	want, ok := t[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, false
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := got[n]; !ok {
			errs = append(errs, fmt.Errorf("%s seed %d: output %s missing", workload, seed, n))
		} else if g != want[n] {
			errs = append(errs, fmt.Errorf("%s seed %d: %s digest %s, committed %s", workload, seed, n, g, want[n]))
		}
	}
	return errs, true
}

// printDigests prints the run's output digests so they can be committed.
func printDigests(workload string, seed uint64, got map[string]string) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("digest %s %d %s %s\n", workload, seed, n, got[n])
	}
}

// verifyDigests runs checkDigests and records the outcome on r.
func (r *run) verifyDigests(workload string, got map[string]string) error {
	t, err := loadDigests()
	if err != nil {
		return err
	}
	printDigests(workload, r.seed, got)
	errs, committed := checkDigests(t, workload, r.seed, got)
	for _, e := range errs {
		r.fail(e)
	}
	if committed {
		fmt.Printf("digests: %d outputs checked against the committed digests for seed %d, %d mismatched\n", len(got), r.seed, len(errs))
	} else {
		fmt.Printf("digests: none committed for seed %d; outputs checked against in-process runs and across units\n", r.seed)
	}
	return nil
}
