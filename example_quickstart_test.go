package coherentleak_test

import (
	"fmt"

	"coherentleak"
)

// Measure the four coherence latency bands, then transmit a short
// message over the canonical on-chip channel (LExclc-LSharedb).
func Example_quickstart() {
	cfg := coherentleak.DefaultMachineConfig()

	// Step 1 — the vulnerability: a load's latency reveals the block's
	// (location, coherence state). These are the §V / Figure 2 bands.
	bands, err := coherentleak.Calibrate(cfg, 42, 300, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println("calibrated latency bands (cycles):")
	for _, pl := range []coherentleak.Placement{
		coherentleak.LShared, coherentleak.LExcl,
		coherentleak.RShared, coherentleak.RExcl,
	} {
		b := bands.ByPlacement[pl]
		fmt.Printf("  %-8s %s (center %.0f)\n", pl, b, b.Center)
	}
	fmt.Printf("  %-8s %s\n\n", "DRAM", bands.DRAM)

	// Step 2 — the attack: the trojan modulates the block between the
	// LExcl (bit) and LShared (boundary) placements; the spy times
	// flush+reload probes and decodes.
	msg := "MESI leaks"
	ch := coherentleak.NewChannel(coherentleak.Scenarios[0])
	res, err := ch.Run(coherentleak.TextToBits(msg))
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario      %s\n", res.Scenario.Name())
	fmt.Printf("transmitted   %q (%d bits)\n", msg, len(res.TxBits))
	fmt.Printf("decoded       %q\n", coherentleak.BitsToText(res.RxBits))
	fmt.Printf("accuracy      %.1f%%\n", res.Accuracy*100)
	fmt.Printf("raw bit rate  %.0f Kbps\n", res.RawKbps)
	fmt.Printf("shared page   created via %s\n", ch.Mode)
	// Output:
	// calibrated latency bands (cycles):
	//   LShared  LShared[89..106] (center 98)
	//   LExcl    LExcl[115..133] (center 124)
	//   RShared  RShared[177..197] (center 186)
	//   RExcl    RExcl[233..251] (center 242)
	//   DRAM     DRAM[337..355]
	//
	// scenario      LExclc-LSharedb
	// transmitted   "MESI leaks" (80 bits)
	// decoded       "MESI leaks"
	// accuracy      100.0%
	// raw bit rate  512 Kbps
	// shared page   created via ksm
}
