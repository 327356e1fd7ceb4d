package coherentleak_test

import (
	"fmt"

	"coherentleak"
)

// Walk through the paper's broader adversary model (§IV): trojan and spy
// have no shared library or file, so they manufacture a shared physical
// page by writing an agreed pseudo-random pattern and letting the
// kernel's same-page merging deduplicate it. The example also shows the
// §VII-A collision hazard — an unrelated process merging into the
// channel page — and the spare-page recovery.
func Example_ksmdedup() {
	cfg := coherentleak.DefaultMachineConfig()
	sess, err := coherentleak.NewSession(cfg, 7, 0xA9, coherentleak.ShareKSM)
	if err != nil {
		panic(err)
	}
	fmt.Println("trojan and spy processes created with no explicit sharing")
	fmt.Printf("agreed pattern seed: %#x (both sides run the same PRNG)\n", 0xA9)
	fmt.Printf("after one KSM scan: trojan VA %#x and spy VA %#x map frame at PA %#x\n",
		sess.TrojanVA, sess.SpyVA, sess.SharedPA())
	fmt.Printf("KSM stats: %d merged, %d scans\n",
		sess.Kern.KSM.Merged, sess.Kern.KSM.Scans)

	// The hazard: a bystander process coincidentally holds the same
	// bytes. On the next scan it merges into the channel page.
	bystander := sess.Kern.NewProcess("bystander")
	va := bystander.MustMmap(1)
	pattern := make([]byte, coherentleak.PageSize)
	coherentleak.PagePatternInto(0xA9, pattern)
	if err := bystander.WriteBytes(va, pattern); err != nil {
		panic(err)
	}
	if err := bystander.Madvise(va, 1); err != nil {
		panic(err)
	}
	sess.Kern.KSM.Scan()
	fmt.Printf("\nbystander wrote the same pattern; externally shared now: %v\n",
		sess.ExternallyShared())

	// Recovery: the pre-created spare page (different pattern) is clean.
	if !sess.SwitchToSpare() {
		panic("no spare page available")
	}
	fmt.Printf("switched to spare page at PA %#x; externally shared: %v\n",
		sess.SharedPA(), sess.ExternallyShared())

	// The channel works over the deduplicated spare page.
	ch := coherentleak.NewChannel(coherentleak.Scenarios[0])
	ch.PatternSeed = 0xA9
	res, err := ch.Run(coherentleak.TextToBits("dedup"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntransmission over a KSM page: %q decoded, accuracy %.0f%%, %.0f Kbps\n",
		coherentleak.BitsToText(res.RxBits), res.Accuracy*100, res.RawKbps)

	// Writes split the page (copy-on-write): no direct channel exists.
	before := sess.SharedPA()
	if err := sess.TrojanProc.WriteBytes(sess.TrojanVA, []byte{1}); err != nil {
		panic(err)
	}
	after, _ := sess.TrojanProc.Translate(sess.TrojanVA)
	fmt.Printf("\ntrojan wrote one byte: page split by COW (PA %#x -> %#x);\n", before, after)
	fmt.Println("KSM never lets merged pages become a direct read/write channel.")
	// Output:
	// trojan and spy processes created with no explicit sharing
	// agreed pattern seed: 0xa9 (both sides run the same PRNG)
	// after one KSM scan: trojan VA 0x100000000 and spy VA 0x200000000 map frame at PA 0x1000
	// KSM stats: 2 merged, 1 scans
	//
	// bystander wrote the same pattern; externally shared now: true
	// switched to spare page at PA 0x2000; externally shared: false
	//
	// transmission over a KSM page: "dedup" decoded, accuracy 100%, 473 Kbps
	//
	// trojan wrote one byte: page split by COW (PA 0x2000 -> 0x4000);
	// KSM never lets merged pages become a direct read/write channel.
}
