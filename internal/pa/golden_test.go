package pa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"aos/internal/qarma"
)

// pacGoldenDigest was recorded from the cell-at-a-time QARMA before its
// rounds became table-driven. It covers the PACs ComputePAC returns under
// every key register, and Encrypt for every S-box at every round count, so
// any drift in the cipher's outputs fails here.
const pacGoldenDigest = "b7d996325cfbdcd488b77375b64b13c886f2e01487c3920884c1e3a4daf50461"

func TestPACGoldenDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var keys [4]KeyPair
	for i := range keys {
		keys[i] = KeyPair{W0: rng.Uint64(), K0: rng.Uint64()}
	}
	units := []*Unit{NewDefaultUnit(), NewUnit(keys)}
	for i := 0; i < 4096; i++ {
		va, mod := rng.Uint64()&VAMask, rng.Uint64()
		for _, u := range units {
			for k := KeyIA; k < numKeys; k++ {
				put(uint64(u.ComputePAC(k, va, mod)))
			}
		}
	}
	for s := qarma.Sigma0; s <= qarma.Sigma2; s++ {
		for rounds := 1; rounds <= 8; rounds++ {
			c := qarma.MustNew(s, rounds, rng.Uint64(), rng.Uint64())
			for i := 0; i < 256; i++ {
				put(c.Encrypt(rng.Uint64(), rng.Uint64()))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pacGoldenDigest {
		t.Errorf("PAC digest = %s, want %s", got, pacGoldenDigest)
	}
}
