package harness_test

import (
	"context"
	"testing"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/store"
)

// BenchmarkCachedJob runs a fully cached quick job over the daemon's
// hot mix (six artifacts, 21 cells) through Prepare and Execute: the
// work a daemon does for a job it serves entirely from its store. B/op
// and allocs/op count what one such job allocates and may retain.
func BenchmarkCachedJob(b *testing.B) {
	arts, err := experiments.Artifacts().Select([]string{"table1", "fig2", "fig6", "fig7", "protomatrix", "lrustate"})
	if err != nil {
		b.Fatal(err)
	}
	r := &harness.Runner{Manifest: store.NewMemory()}
	warm, err := r.Run(context.Background(), quickPlan(), arts)
	if err != nil {
		b.Fatal(err)
	}
	cells := warm.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := r.Prepare(quickPlan(), arts)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := r.Execute(context.Background(), batch)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CacheHits != cells || rep.Executed != 0 {
			b.Fatalf("cached job: %d hits, %d executed; want %d hits", rep.CacheHits, rep.Executed, cells)
		}
	}
}
