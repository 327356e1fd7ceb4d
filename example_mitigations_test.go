package coherentleak_test

import (
	"fmt"

	"coherentleak"
)

// Run the paper's three §VIII-E defenses against the default channel and
// show each one collapsing it: the noise-injection monitor, the KSM
// guard, and the hardware changes (E->M notification, socket-latency
// equalization).
func Example_mitigations() {
	payload := coherentleak.TextToBits("top secret")
	run := func(name string, configure func(*coherentleak.Channel)) {
		ch := coherentleak.NewChannel(coherentleak.Scenarios[0])
		configure(ch)
		res, err := ch.Run(payload)
		if err != nil {
			panic(err)
		}
		decoded := coherentleak.BitsToText(res.RxBits)
		fmt.Printf("%-28s accuracy %5.1f%%  decoded %q\n", name, res.Accuracy*100, decoded)
	}

	fmt.Println("channel: LExclc-LSharedb, payload \"top secret\"")
	fmt.Println("(random-garbage decodes still show ~65-70% edit-distance accuracy)")
	fmt.Println()

	run("no defense", func(ch *coherentleak.Channel) {})

	run("monitor thread (#1)", func(ch *coherentleak.Channel) {
		ch.PreRun = func(s *coherentleak.Session) {
			coherentleak.AttachMonitor(s.Kern,
				coherentleak.DefaultMonitorConfig(), coherentleak.AttackLines(s))
		}
	})

	run("KSM guard (#2)", func(ch *coherentleak.Channel) {
		ch.PreRun = func(s *coherentleak.Session) {
			coherentleak.AttachKSMGuard(s.Kern, coherentleak.DefaultKSMGuardConfig())
		}
	})

	run("E->M notification (#3a)", func(ch *coherentleak.Channel) {
		ch.Config = coherentleak.HardwareFix(ch.Config)
	})

	run("latency equalization (#3b)", func(ch *coherentleak.Channel) {
		// The obfuscator pads every off-core load to the worst-case
		// path, flattening all four bands at once.
		ch.Config = coherentleak.TimingObfuscator(ch.Config)
	})

	run("full hardware defense", func(ch *coherentleak.Channel) {
		ch.Config = coherentleak.FullHardwareDefense(ch.Config)
	})

	fmt.Println()
	fmt.Println("note: #3a collapses only the E/S bands, so location-based scenarios")
	fmt.Println("like RSharedc-LSharedb survive it; the full grid is in the mitigation")
	fmt.Println("ablation (cmd/experiments -only mitigations).")
	// Output:
	// channel: LExclc-LSharedb, payload "top secret"
	// (random-garbage decodes still show ~65-70% edit-distance accuracy)
	//
	// no defense                   accuracy 100.0%  decoded "top secret"
	// monitor thread (#1)          accuracy   0.0%  decoded ""
	// KSM guard (#2)               accuracy  18.8%  decoded "t"
	// E->M notification (#3a)      accuracy  66.3%  decoded "娄`\x04\x87\x11\"|\x80,"
	// latency equalization (#3b)   accuracy  64.0%  decoded "\x15\bJ\x10\\D\x92\x01RH>a"
	// full hardware defense        accuracy  64.0%  decoded "\x15\bJ\x10\\D\x92\x01RH>a"
	//
	// note: #3a collapses only the E/S bands, so location-based scenarios
	// like RSharedc-LSharedb survive it; the full grid is in the mitigation
	// ablation (cmd/experiments -only mitigations).
}
