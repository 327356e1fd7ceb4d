// Command loadgen is the capacity harness for a running cohsimd: it
// replays job mixes (hot cached, cold sweep-like, config-override long
// tail) from N concurrent tenants, reports per-tenant throughput,
// latency percentiles, 429 rates and cache-hit ratios, and sweeps a
// list of concurrency levels into a jobs/sec-vs-concurrency curve.
//
// Usage:
//
//	loadgen -server http://localhost:8080 \
//	        -tenants 'alice=alice-key-123456=hot,bob=bob-key-1234567=cold' \
//	        -concurrency 1,2,4,8 -duration 10s \
//	        [-artifact table1] [-sizing quick] [-out curve.json]
//
// Each -tenants element is name=key=mix[=seed]; key may be empty for a
// daemon running in anonymous mode (no -keys file). Mixes: hot (one
// fixed job resubmitted — the all-cached best case), cold (fresh seed
// per job — every cell executes), longtail (fixed seed, cycling
// machine-config overrides). Distinct hot tenants should use distinct
// seeds so their working sets do not collide; seed defaults to the
// tenant's index.
//
// The JSON has one entry per concurrency level with the aggregate
// jobs/sec and the full per-tenant breakdown. It goes to stdout unless
// -out names a file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"coherentleak/internal/loadgen"
	"coherentleak/internal/version"
)

// benchDoc is the output shape: the capacity curve of one server.
type benchDoc struct {
	Bench    string       `json:"bench"`
	Version  string       `json:"version"`
	Server   string       `json:"server"`
	Artifact string       `json:"artifact"`
	Sizing   string       `json:"sizing"`
	Duration string       `json:"durationPerLevel"`
	Tenants  []tenantSpec `json:"tenants"`
	Levels   []levelDoc   `json:"levels"`
}

type tenantSpec struct {
	Name string      `json:"name"`
	Mix  loadgen.Mix `json:"mix"`
	Seed uint64      `json:"seed"`
}

type levelDoc struct {
	Concurrency int                    `json:"concurrency"`
	JobsPerSec  float64                `json:"jobsPerSec"`
	Tenants     []loadgen.TenantReport `json:"tenants"`
}

func main() {
	var (
		server      = flag.String("server", "http://localhost:8080", "cohsimd base URL")
		tenantsCSV  = flag.String("tenants", "anonymous==hot", "comma-separated name=key=mix[=seed] tenant specs")
		concCSV     = flag.String("concurrency", "1,2,4", "comma-separated closed-loop workers per tenant, one run per level")
		duration    = flag.Duration("duration", 10*time.Second, "measured duration per concurrency level")
		artifact    = flag.String("artifact", "table1", "artifact submitted by every job")
		sizing      = flag.String("sizing", "quick", "sizing submitted by every job")
		outPath     = flag.String("out", "", "write the capacity curve here (empty = stdout)")
		showVersion = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("loadgen", version.Get())
		return
	}

	tenants, err := parseTenants(*tenantsCSV)
	if err != nil {
		fatal(err)
	}
	levels, err := parseLevels(*concCSV)
	if err != nil {
		fatal(err)
	}

	doc := benchDoc{
		Bench:    "loadgen-capacity",
		Version:  version.Get().String(),
		Server:   *server,
		Artifact: *artifact,
		Sizing:   *sizing,
		Duration: duration.String(),
	}
	for _, tn := range tenants {
		doc.Tenants = append(doc.Tenants, tenantSpec{Name: tn.Name, Mix: tn.Mix, Seed: tn.Seed})
	}

	for li, conc := range levels {
		// Each level gets a disjoint cold-seed range: without this, a cold
		// tenant's level-2 jobs would re-hit the cells its level-1 jobs
		// stored, and "cold" would quietly stop measuring executions.
		run := make([]loadgen.Tenant, len(tenants))
		for i, tn := range tenants {
			if tn.Mix == loadgen.MixCold {
				tn.Seed += uint64(li) * 1_000_000
			}
			run[i] = tn
		}
		fmt.Fprintf(os.Stderr, "loadgen: %d tenant(s) x %d worker(s) for %s against %s\n",
			len(tenants), conc, *duration, *server)
		rep, err := loadgen.Run(context.Background(), loadgen.Options{
			BaseURL:     *server,
			Tenants:     run,
			Concurrency: conc,
			Duration:    *duration,
			Artifact:    *artifact,
			Sizing:      *sizing,
		})
		if err != nil {
			fatal(err)
		}
		doc.Levels = append(doc.Levels, levelDoc{
			Concurrency: conc,
			JobsPerSec:  rep.JobsPerSec,
			Tenants:     rep.Tenants,
		})
		for _, tr := range rep.Tenants {
			fmt.Fprintf(os.Stderr, "loadgen:   %-12s %-8s %6.1f jobs/s  p50 %6.1fms  p99 %6.1fms  429s %-4d hit %.2f\n",
				tr.Tenant, tr.Mix, tr.JobsPerSec, tr.LatencyP50Millis, tr.LatencyP99Millis, tr.Rejected429, tr.CacheHitRatio)
		}
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *outPath)
	} else {
		os.Stdout.Write(out)
	}
}

// parseTenants parses "name=key=mix[=seed]" comma-separated specs.
func parseTenants(csv string) ([]loadgen.Tenant, error) {
	var out []loadgen.Tenant
	for i, spec := range strings.Split(csv, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, "=")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("tenant spec %q: want name=key=mix[=seed]", spec)
		}
		tn := loadgen.Tenant{Name: parts[0], Key: parts[1], Seed: uint64(i + 1)}
		switch m := loadgen.Mix(parts[2]); m {
		case loadgen.MixHot, loadgen.MixCold, loadgen.MixLongtail:
			tn.Mix = m
		default:
			return nil, fmt.Errorf("tenant spec %q: unknown mix %q (hot, cold or longtail)", spec, parts[2])
		}
		if len(parts) == 4 {
			seed, err := strconv.ParseUint(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant spec %q: bad seed: %v", spec, err)
			}
			tn.Seed = seed
		}
		if tn.Name == "" {
			return nil, fmt.Errorf("tenant spec %q: empty name", spec)
		}
		out = append(out, tn)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in %q", csv)
	}
	return out, nil
}

// parseLevels parses the comma-separated concurrency curve.
func parseLevels(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad concurrency level %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no concurrency levels in %q", csv)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
