package coherentleak_test

import (
	"fmt"

	"coherentleak"
)

// Demonstrate §VIII-C's error handling: a 64-byte packet is framed with
// 16 parity bits, transmitted over the covert channel under heavy
// co-located noise, acknowledged over the 1-bit reverse channel, and
// retransmitted until received — then the same payload goes over the
// Hamming(7,4) forward-error-correction alternative for comparison. The
// checked output carries the end-to-end test: "recovered: true".
func Example_reliable() {
	secret := []byte("sixty-four bytes of key material traveling one packet at a time")
	fmt.Printf("payload: %d bytes under 8 co-located kernel-build threads\n\n", len(secret))

	sc, err := coherentleak.ScenarioByName("RExclc-LSharedb")
	if err != nil {
		panic(err)
	}

	// Rate-adapted operating point: heavy redundancy so whole packets
	// survive the noise (see EXPERIMENTS.md on Figure 10).
	params := coherentleak.DefaultParams()
	params.C1, params.C0, params.Cb = 6, 3, 4
	params.Ts = 3800
	params.MinRun = 3
	params.EndRun = 16

	ch := coherentleak.Channel{
		Config:      coherentleak.DefaultMachineConfig(),
		Scenario:    sc,
		Params:      params,
		Mode:        coherentleak.ShareExplicit,
		WorldSeed:   11,
		PatternSeed: 11,
		PreRun: func(s *coherentleak.Session) {
			if err := coherentleak.CoLocate(s, 8); err != nil {
				panic(err)
			}
		},
	}

	arq := coherentleak.NewReliableProtocol(ch)
	res, err := arq.Send(secret)
	if err != nil {
		panic(err)
	}
	fmt.Println("parity + NACK retransmission (the paper's scheme):")
	fmt.Printf("  packets %d, attempts %d (retransmissions %d)\n",
		res.Packets, res.Attempts, res.Retransmissions)
	fmt.Printf("  recovered: %v, effective rate %.0f Kbps\n", res.Recovered, res.EffectiveKbps)

	fec := coherentleak.NewFECProtocol(ch)
	fres, err := fec.Send(coherentleak.TextToBits(string(secret)))
	if err != nil {
		panic(err)
	}
	fmt.Println("\nHamming(7,4) + interleaver FEC (no reverse channel):")
	fmt.Printf("  frame intact: %v, recovered: %v, corrections %d\n",
		fres.FrameIntact, fres.Recovered, fres.Corrected)
	fmt.Printf("  effective rate %.0f Kbps (the 7/4 code always costs ~43%%)\n", fres.EffectiveKbps)
	fmt.Println("\nFEC has no retransmission path: a single lost wire bit destroys the")
	fmt.Println("frame, which is why the paper chose detection + resend.")
	// Output:
	// payload: 63 bytes under 8 co-located kernel-build threads
	//
	// parity + NACK retransmission (the paper's scheme):
	//   packets 1, attempts 1 (retransmissions 0)
	//   recovered: true, effective rate 73 Kbps
	//
	// Hamming(7,4) + interleaver FEC (no reverse channel):
	//   frame intact: true, recovered: true, corrections 0
	//   effective rate 44 Kbps (the 7/4 code always costs ~43%)
	//
	// FEC has no retransmission path: a single lost wire bit destroys the
	// frame, which is why the paper chose detection + resend.
}
