package bpred

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// refFoldHistory is the original bit-at-a-time fold: history bit i lands
// in folded bit i%width. foldHistory must equal it for every input.
func refFoldHistory(ghist [4]uint64, n, width uint) uint32 {
	var folded uint32
	var acc uint32
	var accBits uint
	for i := uint(0); i < n; i++ {
		bit := uint32(ghist[i/64]>>(i%64)) & 1
		acc |= bit << accBits
		accBits++
		if accBits == width {
			folded ^= acc
			acc, accBits = 0, 0
		}
	}
	folded ^= acc
	return folded
}

func TestFoldHistoryMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var lens []uint
	for _, n := range histLens {
		lens = append(lens, n)
	}
	lens = append(lens, 0, 1, 63, 64, 65, 128, 130, 256)
	for trial := 0; trial < 200; trial++ {
		p := &TAGE{}
		for i := range p.ghist {
			p.ghist[i] = rng.Uint64()
		}
		if trial == 0 {
			p.ghist = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
		for _, n := range lens {
			for width := uint(1); width <= 16; width++ {
				got := p.foldHistory(n, width)
				want := refFoldHistory(p.ghist, n, width)
				if got != want {
					t.Fatalf("ghist %x, n=%d width=%d: fold %#x, bit loop %#x", p.ghist, n, width, got, want)
				}
			}
		}
	}
}

// goldenStream is a seeded branch stream over 384 sites mixing biased,
// periodic, history-correlated and random branches, long enough to cross
// one useful-bit aging period and to drive allocation and decay.
func goldenStream(n int, visit func(pc uint32, taken bool)) {
	const sites = 384
	rng := rand.New(rand.NewSource(2006))
	bias := make([]bool, sites)
	period := make([]int, sites)
	count := make([]int, sites)
	for s := range bias {
		bias[s] = rng.Intn(2) == 0
		period[s] = 2 + rng.Intn(8)
	}
	last := false
	for i := 0; i < n; i++ {
		s := rng.Intn(sites)
		var taken bool
		switch s % 4 {
		case 0:
			taken = bias[s] != (rng.Intn(100) < 3)
		case 1:
			taken = count[s]%period[s] == 0
		case 2:
			taken = last != bias[s]
		default:
			taken = rng.Intn(2) == 0
		}
		count[s]++
		last = taken
		visit(0x10000+uint32(s)*52, taken)
	}
}

// stateDigest hashes everything Snapshot copies except the counters.
func stateDigest(s *State) string {
	var buf []byte
	for _, c := range s.base {
		buf = append(buf, byte(c))
	}
	for b := range s.banks {
		for _, e := range s.banks[b] {
			buf = binary.LittleEndian.AppendUint16(buf, e.tag)
			buf = append(buf, byte(e.ctr), e.useful)
		}
	}
	for _, w := range s.ghist {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = binary.LittleEndian.AppendUint32(buf, s.rng)
	buf = binary.LittleEndian.AppendUint64(buf, s.ticks)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestTAGEGolden pins the predictor bit for bit: the final counters, the
// sequence of predictions and the trained state of a 300k-branch stream
// must stay exactly as first recorded. A host-speed change to the index
// or tag computation may not move any of them.
func TestTAGEGolden(t *testing.T) {
	const n = 300_000
	p := NewTAGE()
	preds := sha256.New()
	var bits [1]byte
	goldenStream(n, func(pc uint32, taken bool) {
		bits[0] = 0
		if p.Update(pc, taken) {
			bits[0] = 1
		}
		preds.Write(bits[:])
	})
	s := p.Snapshot()
	if s.ticks <= resetEvery || s.rng == NewTAGE().rng {
		t.Fatalf("stream too short to cover aging and decay: ticks=%d rng=%#x", s.ticks, s.rng)
	}
	if want := (Stats{Lookups: n, Mispredicts: goldenMispredicts}); p.Stats() != want {
		t.Errorf("Stats = %+v, want %+v", p.Stats(), want)
	}
	if got := hex.EncodeToString(preds.Sum(nil)); got != goldenPreds {
		t.Errorf("prediction digest = %s, want %s", got, goldenPreds)
	}
	if got := stateDigest(s); got != goldenState {
		t.Errorf("state digest = %s, want %s", got, goldenState)
	}
}

// Recorded with the bit-at-a-time fold, before the chunked fold and the
// once-per-branch index/tag computation.
const (
	goldenMispredicts = 87773
	goldenPreds       = "a5110c218be547de4eb6ea7bc04db839818fb138e5811c8997fe8bf53488af03"
	goldenState       = "9a9c0a7f1c15231aaafe8b167eed6568dada0a275e7b69f1eb2f77d9f6327814"
)
