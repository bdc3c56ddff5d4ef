package qarma

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Published QARMA-64 test vectors (Avanzi, ToSC 2017, r = 5):
//
//	P = fb623599da6e8127, T = 477d469dec0b8762,
//	K = w0||k0 = 84be85ce9804e94b ec2802d4e0a488e9.
//
// The 128-bit key 0x84be85ce9804e94bec2802d4e0a488e9 and the context
// 0x477d469dec0b8762 are exactly the values the AOS paper plugs into its
// PAC-distribution microbenchmark (§VI).
const (
	tvPlain uint64 = 0xfb623599da6e8127
	tvTweak uint64 = 0x477d469dec0b8762
	tvW0    uint64 = 0x84be85ce9804e94b
	tvK0    uint64 = 0xec2802d4e0a488e9
)

var tvCipher = map[Sbox]uint64{
	Sigma0: 0x3ee99a6c82af0c38,
	Sigma1: 0x544b0ab95bda7c3a,
	Sigma2: 0xc003b93999b33765,
}

// encryptRef is the cell-at-a-time Encrypt the table-driven one replaced:
// every round through the per-cell functions, the backward tweaks undone
// step by step.
func encryptRef(q *Cipher, plaintext, tweak uint64) uint64 {
	w1 := q.w1()
	k1 := q.k0

	is := plaintext ^ q.w0
	t := tweak
	for i := 0; i < q.rounds; i++ {
		is = q.forwardRound(is, q.k0^t^roundConstants[i], i != 0)
		t = forwardTweak(t)
	}

	is = q.forwardRound(is, w1^t, true)
	is = q.pseudoReflect(is, k1)
	is = q.backwardRound(is, q.w0^t, true)

	for i := q.rounds - 1; i >= 0; i-- {
		t = backwardTweak(t)
		is = q.backwardRound(is, q.k0^t^roundConstants[i]^alpha, i != 0)
	}
	return is ^ w1
}

func TestEncryptMatchesCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for s := Sigma0; s <= Sigma2; s++ {
		for rounds := 1; rounds <= len(roundConstants); rounds++ {
			c := MustNew(s, rounds, rng.Uint64(), rng.Uint64())
			for i := 0; i < 2000; i++ {
				p, tw := rng.Uint64(), rng.Uint64()
				if got, want := c.Encrypt(p, tw), encryptRef(c, p, tw); got != want {
					t.Fatalf("sigma%d rounds=%d: Encrypt(%016x, %016x) = %016x, reference %016x",
						s, rounds, p, tw, got, want)
				}
			}
		}
	}
}

func TestEncryptTestVectors(t *testing.T) {
	for s, want := range tvCipher {
		c := MustNew(s, Rounds, tvW0, tvK0)
		got := c.Encrypt(tvPlain, tvTweak)
		if got != want {
			t.Errorf("sigma%d: Encrypt = %016x, want %016x", s, got, want)
		}
	}
}

func TestDecryptTestVectors(t *testing.T) {
	for s, ct := range tvCipher {
		c := MustNew(s, Rounds, tvW0, tvK0)
		if got := c.Decrypt(ct, tvTweak); got != tvPlain {
			t.Errorf("sigma%d: Decrypt = %016x, want %016x", s, got, tvPlain)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for s := Sigma0; s <= Sigma2; s++ {
		c := MustNew(s, Rounds, tvW0, tvK0)
		f := func(p, tw uint64) bool {
			return c.Decrypt(c.Encrypt(p, tw), tw) == p
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("sigma%d: %v", s, err)
		}
	}
}

func TestRoundTripAcrossRoundCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for rounds := 1; rounds <= 8; rounds++ {
		c := MustNew(Sigma1, rounds, rng.Uint64(), rng.Uint64())
		for i := 0; i < 50; i++ {
			p, tw := rng.Uint64(), rng.Uint64()
			if got := c.Decrypt(c.Encrypt(p, tw), tw); got != p {
				t.Fatalf("rounds=%d: round trip failed: %016x -> %016x", rounds, p, got)
			}
		}
	}
}

func TestTweakSensitivity(t *testing.T) {
	c := MustNew(Sigma1, Rounds, tvW0, tvK0)
	base := c.Encrypt(tvPlain, tvTweak)
	for bit := 0; bit < 64; bit++ {
		if got := c.Encrypt(tvPlain, tvTweak^(1<<uint(bit))); got == base {
			t.Errorf("flipping tweak bit %d did not change the ciphertext", bit)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	base := MustNew(Sigma1, Rounds, tvW0, tvK0).Encrypt(tvPlain, tvTweak)
	for bit := 0; bit < 64; bit++ {
		cw := MustNew(Sigma1, Rounds, tvW0^(1<<uint(bit)), tvK0)
		ck := MustNew(Sigma1, Rounds, tvW0, tvK0^(1<<uint(bit)))
		if cw.Encrypt(tvPlain, tvTweak) == base {
			t.Errorf("flipping w0 bit %d did not change the ciphertext", bit)
		}
		if ck.Encrypt(tvPlain, tvTweak) == base {
			t.Errorf("flipping k0 bit %d did not change the ciphertext", bit)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Sbox(7), Rounds, 0, 0); err == nil {
		t.Error("New accepted an invalid sbox")
	}
	if _, err := New(Sigma1, 0, 0, 0); err == nil {
		t.Error("New accepted zero rounds")
	}
	if _, err := New(Sigma1, 9, 0, 0); err == nil {
		t.Error("New accepted too many rounds")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid parameters")
		}
	}()
	MustNew(Sbox(-1), Rounds, 0, 0)
}

func TestPermutationHelpers(t *testing.T) {
	// tau and tauInv must compose to the identity on a distinguishable state.
	x := uint64(0x0123456789abcdef)
	if got := permuteCells(permuteCells(x, &tau), &tauInv); got != x {
		t.Errorf("tauInv(tau(x)) = %016x, want %016x", got, x)
	}
	if got := permuteCells(permuteCells(x, &hPerm), &hPermInv); got != x {
		t.Errorf("hInv(h(x)) = %016x, want %016x", got, x)
	}
}

func TestMixColumnsInvolution(t *testing.T) {
	f := func(x uint64) bool { return mixColumns(mixColumns(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLFSRInverse(t *testing.T) {
	for v := uint64(0); v < 16; v++ {
		if lfsrInv(lfsr(v)) != v {
			t.Errorf("lfsrInv(lfsr(%d)) = %d", v, lfsrInv(lfsr(v)))
		}
		if lfsr(lfsrInv(v)) != v {
			t.Errorf("lfsr(lfsrInv(%d)) = %d", v, lfsr(lfsrInv(v)))
		}
	}
}

func TestTweakScheduleInverse(t *testing.T) {
	f := func(tw uint64) bool { return backwardTweak(forwardTweak(tw)) == tw }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSboxesAreBijective(t *testing.T) {
	for i, s := range sboxes {
		var seen [16]bool
		for _, v := range s {
			if v > 15 || seen[v] {
				t.Fatalf("sigma%d is not a permutation of 0..15", i)
			}
			seen[v] = true
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c := MustNew(Sigma1, Rounds, tvW0, tvK0)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.Encrypt(uint64(i), tvTweak)
	}
	_ = sink
}
