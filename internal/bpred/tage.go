// Package bpred implements a TAGE-style conditional branch predictor, the
// class of predictor (L-TAGE, Seznec) configured in the paper's evaluation
// platform (Table IV). The timing simulator consults it for every dynamic
// branch; mispredictions cost a pipeline redirect.
//
// The implementation is a standard TAGE: a bimodal base predictor plus N
// partially-tagged banks indexed by geometrically longer global-history
// folds, with provider/alternate selection, useful counters, and
// allocation on misprediction.
package bpred

const (
	numBanks   = 4
	bankBits   = 10 // 1024 entries per bank
	tagBits    = 11
	baseBits   = 13 // 8192-entry bimodal
	ctrMax     = 3  // 3-bit signed counter range [-4,3]
	ctrMin     = -4
	usefulMax  = 3
	resetEvery = 1 << 18
)

// History lengths per bank (geometric, L-TAGE style).
var histLens = [numBanks]uint{5, 15, 44, 130}

type tagEntry struct {
	tag    uint16
	ctr    int8
	useful uint8
}

// TAGE is a deterministic TAGE predictor. The zero value is not usable;
// call NewTAGE.
type TAGE struct {
	tageState

	// folds are each bank's history folds at the index and tag widths,
	// kept up to date on every history push (L-TAGE's folded-history
	// registers). They are derived from ghist: Restore rebuilds them, so
	// checkpoints do not carry them.
	folds [numBanks]foldRegs
}

// foldRegs are one bank's folded-history registers: foldHistory of the
// bank's history length at bankBits and at tagBits.
type foldRegs struct {
	idx, tag uint32
}

// tageState is the predictor's whole state, the one field list that
// checkpoints capture (see snapshot.go).
type tageState struct {
	base  []int8 // bimodal 2-bit counters [-2,1]
	banks [numBanks][]tagEntry

	ghist [4]uint64 // 256 bits of global history, bit 0 = most recent
	rng   uint32    // LFSR for allocation tie-breaking
	ticks uint64

	stats Stats
}

// Stats counts prediction outcomes.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
}

// Rate returns the misprediction rate.
func (s Stats) Rate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// NewTAGE returns a fresh predictor.
func NewTAGE() *TAGE {
	t := &TAGE{tageState: tageState{base: make([]int8, 1<<baseBits), rng: 0xACE1}}
	for i := range t.banks {
		t.banks[i] = make([]tagEntry, 1<<bankBits)
	}
	return t
}

// Stats returns a copy of the counters.
func (t *TAGE) Stats() Stats { return t.stats }

// ResetStats clears the counters, keeping the trained predictor state.
func (t *TAGE) ResetStats() { t.stats = Stats{} }

// foldHistory folds the first n history bits into width bits (width ≤ 16):
// the XOR of consecutive width-bit chunks, bit 0 = most recent, so history
// bit i lands in folded bit i%width. Each chunk is cut from at most two
// ghist words.
func (t *TAGE) foldHistory(n, width uint) uint32 {
	var folded uint64
	for i := uint(0); i < n; i += width {
		w, off := i/64, i%64
		chunk := t.ghist[w] >> off
		if off+width > 64 && w+1 < uint(len(t.ghist)) {
			chunk |= t.ghist[w+1] << (64 - off)
		}
		folded ^= chunk & (1<<min(width, n-i) - 1)
	}
	return uint32(folded)
}

// keys are one branch's bank indices and tags. Every table access of an
// Update happens before its history push, so they are computed once.
type keys struct {
	idx [numBanks]uint32
	tag [numBanks]uint16
}

// refold recomputes every fold register from ghist.
func (t *TAGE) refold() {
	for b := range t.folds {
		t.folds[b] = foldRegs{
			idx: t.foldHistory(histLens[b], bankBits),
			tag: t.foldHistory(histLens[b], tagBits),
		}
	}
}

// pushFold advances a fold of n history bits into width bits by one
// history push in O(1): every bit moves up one place, so the fold
// rotates left by one; in enters at bit 0, and out, history bit n-1
// before the push, leaves from folded bit n%width.
func pushFold(f uint32, width, n uint, in, out uint32) uint32 {
	f = (f<<1 | f>>(width-1)) & (1<<width - 1)
	return f ^ in ^ out<<(n%width)
}

// keysFor reads each bank's index and tag folds from its registers. The
// tag's second fold is tagBits-1 == bankBits wide, the index fold itself.
func (t *TAGE) keysFor(pc uint32) keys {
	var k keys
	for b := range k.idx {
		hIdx, hTag := t.folds[b].idx, t.folds[b].tag
		k.idx[b] = (pc ^ pc>>bankBits ^ hIdx ^ uint32(b)<<3) & (1<<bankBits - 1)
		k.tag[b] = uint16((pc ^ hTag ^ hIdx<<1) & (1<<tagBits - 1))
	}
	return k
}

func (t *TAGE) baseIndex(pc uint32) uint32 { return pc & (1<<baseBits - 1) }

// lookup finds the provider (longest matching bank) and the alternate.
func (t *TAGE) lookup(pc uint32, k keys) (provider int, altPred, provPred bool) {
	provider = -1
	alt := -1
	for b := numBanks - 1; b >= 0; b-- {
		if t.banks[b][k.idx[b]].tag == k.tag[b] {
			if provider < 0 {
				provider = b
			} else {
				alt = b
				break
			}
		}
	}
	basePred := t.base[t.baseIndex(pc)] >= 0
	altPred = basePred
	if alt >= 0 {
		altPred = t.banks[alt][k.idx[alt]].ctr >= 0
	}
	provPred = basePred
	if provider >= 0 {
		provPred = t.banks[provider][k.idx[provider]].ctr >= 0
	}
	return provider, altPred, provPred
}

func (t *TAGE) nextRand() uint32 {
	// 16-bit Galois LFSR: deterministic allocation tie-breaking.
	lsb := t.rng & 1
	t.rng >>= 1
	if lsb != 0 {
		t.rng ^= 0xB400
	}
	return t.rng
}

func bump(c int8, up bool, lo, hi int8) int8 {
	if up && c < hi {
		return c + 1
	}
	if !up && c > lo {
		return c - 1
	}
	return c
}

// Update predicts the branch at pc, trains the predictor with the resolved
// outcome, and returns the prediction it made before training. Branches
// must be presented in program order.
func (t *TAGE) Update(pc uint32, taken bool) bool {
	k := t.keysFor(pc)
	provider, altPred, pred := t.lookup(pc, k)
	t.stats.Lookups++
	if pred != taken {
		t.stats.Mispredicts++
	}

	// Update the provider (or the base predictor).
	if provider >= 0 {
		e := &t.banks[provider][k.idx[provider]]
		e.ctr = bump(e.ctr, taken, ctrMin, ctrMax)
		provCorrect := (e.ctr >= 0) == taken // after update; close enough
		if provCorrect && altPred != taken && e.useful < usefulMax {
			e.useful++
		}
		if !provCorrect && altPred == taken && e.useful > 0 {
			e.useful--
		}
	} else {
		i := t.baseIndex(pc)
		t.base[i] = bump(t.base[i], taken, -2, 1)
	}

	// Allocate a new entry in a longer bank on misprediction.
	if pred != taken && provider < numBanks-1 {
		start := provider + 1
		allocated := false
		for b := start; b < numBanks; b++ {
			e := &t.banks[b][k.idx[b]]
			if e.useful == 0 {
				e.tag = k.tag[b]
				e.useful = 0
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay a candidate so the future allocation can succeed.
			b := start + int(t.nextRand())%(numBanks-start)
			e := &t.banks[b][k.idx[b]]
			if e.useful > 0 {
				e.useful--
			}
		}
	}

	// Push the outcome into global history and its folds.
	carry := uint64(0)
	if taken {
		carry = 1
	}
	for b := range t.folds {
		n := histLens[b]
		out := uint32(t.ghist[(n-1)/64]>>((n-1)%64)) & 1
		f := &t.folds[b]
		f.idx = pushFold(f.idx, bankBits, n, uint32(carry), out)
		f.tag = pushFold(f.tag, tagBits, n, uint32(carry), out)
	}
	for i := 0; i < len(t.ghist); i++ {
		next := t.ghist[i] >> 63
		t.ghist[i] = t.ghist[i]<<1 | carry
		carry = next
	}

	// Graceful useful-bit aging.
	t.ticks++
	if t.ticks%resetEvery == 0 {
		for b := range t.banks {
			for i := range t.banks[b] {
				t.banks[b][i].useful >>= 1
			}
		}
	}
	return pred
}
