package sim

import "testing"

// BenchmarkWorldSwitch measures one scheduler handoff: two threads
// alternate one-cycle advances, so every Advance passes control to the
// other thread. One op is one Advance.
func BenchmarkWorldSwitch(b *testing.B) {
	w := NewWorld(Config{Seed: 1})
	for i := 0; i < 2; i++ {
		n := (b.N + 1 - i) / 2
		w.Spawn("switch", func(th *Thread) {
			for j := 0; j < n; j++ {
				th.Advance(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorldAdvanceInline measures the inline fast path: a lone
// thread is always the earliest runnable, so Advance never switches.
func BenchmarkWorldAdvanceInline(b *testing.B) {
	w := NewWorld(Config{Seed: 1})
	w.Spawn("inline", func(th *Thread) {
		for j := 0; j < b.N; j++ {
			th.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}
