// Package qarma implements the QARMA-64 tweakable block cipher
// (R. Avanzi, "The QARMA Block Cipher Family", ToSC 2017).
//
// QARMA is the cipher Arm suggests for computing pointer authentication
// codes (PACs) in the Armv8.3-A pointer authentication extension, and it is
// the cipher the AOS paper uses for its PAC-distribution study (§VI). This
// implementation covers the 64-bit block variant with r forward/backward
// rounds (the paper and Arm use r = 7) and all three S-box choices
// σ0, σ1 and σ2.
//
// The state is viewed as 16 4-bit cells; cell 0 is the most significant
// nibble. The cipher is a three-round Even-Mansour construction: r forward
// rounds, a pseudo-reflector, and r backward rounds, with a tweak schedule
// that permutes cells and steps a 4-bit LFSR on a fixed subset of cells.
package qarma

import "fmt"

// Sbox selects one of the three QARMA S-boxes.
type Sbox int

// The three S-box choices defined by the QARMA specification. Sigma1 is the
// recommended general-purpose choice and the AOS default.
const (
	Sigma0 Sbox = iota
	Sigma1
	Sigma2
)

// Rounds is the standard number of forward (and backward) rounds for
// QARMA-64 as deployed for pointer authentication: the Armv8.3-A PAC
// algorithm is QARMA5, i.e. r = 5 (FEAT_PACQARMA5).
const Rounds = 5

// alpha is the reflection constant.
const alpha = 0xC0AC29B7C97C50DD

// roundConstants are the per-round constants c0..c7 (digits of pi).
var roundConstants = [8]uint64{
	0x0000000000000000,
	0x13198A2E03707344,
	0xA4093822299F31D0,
	0x082EFA98EC4E6C89,
	0x452821E638D01377,
	0xBE5466CF34E90C6C,
	0x3F84D5B5B5470917,
	0x9216D5D98979FB1B,
}

// Cell shuffle tau and its inverse.
var (
	tau    = [16]int{0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2}
	tauInv = invertPerm(tau)
)

// Tweak cell permutation h and its inverse.
var (
	hPerm    = [16]int{6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11}
	hPermInv = invertPerm(hPerm)
)

// lfsrCells are the tweak cells stepped by the LFSR each round.
var lfsrCells = [7]int{0, 1, 3, 4, 8, 11, 13}

var sboxes = [3][16]uint64{
	{0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5},
	{10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4},
	{11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10},
}

func invertPerm(p [16]int) [16]int {
	var inv [16]int
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// sboxTables is one S-box and its inverse, cell-wide and byte-wide (a
// byte-wide table applies the S-box to both cells of a byte).
type sboxTables struct {
	cell, cellInv [16]uint64
	sb, sbInv     [256]uint8
}

// sboxTabs holds each S-box's tables, built once at init and shared by
// every Cipher that uses it.
var sboxTabs = func() (t [len(sboxes)]sboxTables) {
	for i := range t {
		for v, x := range sboxes[i] {
			t[i].cell[v], t[i].cellInv[x] = x, uint64(v)
		}
		for b := range t[i].sb {
			t[i].sb[b] = uint8(subCells(uint64(b), &t[i].cell))
			t[i].sbInv[b] = uint8(subCells(uint64(b), &t[i].cellInv))
		}
	}
	return t
}()

// Cipher is a QARMA-64 instance bound to an S-box choice, a round count and
// a 128-bit key (w0 || k0). A Cipher is immutable and safe for concurrent
// use.
type Cipher struct {
	s      *sboxTables
	rounds int
	w0, k0 uint64
	// reflKey is the reflector's key k1 (= k0) moved through the
	// reflector's final shuffle: τ⁻¹(k1).
	reflKey uint64
}

// New returns a QARMA-64 cipher with the given S-box, rounds and key halves.
// w0 is the whitening key and k0 the core key (the 128-bit key is w0||k0).
func New(s Sbox, rounds int, w0, k0 uint64) (*Cipher, error) {
	if s < Sigma0 || s > Sigma2 {
		return nil, fmt.Errorf("qarma: invalid sbox %d", s)
	}
	if rounds < 1 || rounds > len(roundConstants) {
		return nil, fmt.Errorf("qarma: rounds must be in [1,%d], got %d", len(roundConstants), rounds)
	}
	return &Cipher{
		s:       &sboxTabs[s],
		rounds:  rounds,
		w0:      w0,
		k0:      k0,
		reflKey: permuteCells(k0, &tauInv),
	}, nil
}

// MustNew is New but panics on invalid parameters; for use with constants.
func MustNew(s Sbox, rounds int, w0, k0 uint64) *Cipher {
	c, err := New(s, rounds, w0, k0)
	if err != nil {
		panic(err)
	}
	return c
}

// cell returns 4-bit cell i (cell 0 = most significant nibble).
func cell(x uint64, i int) uint64 { return (x >> (60 - 4*i)) & 0xF }

// withCell returns x with cell i replaced by v.
func withCell(x uint64, i int, v uint64) uint64 {
	sh := uint(60 - 4*i)
	return (x &^ (0xF << sh)) | (v << sh)
}

// permuteCells applies cell shuffle p: output cell i = input cell p[i].
func permuteCells(x uint64, p *[16]int) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= cell(x, p[i]) << (60 - 4*i)
	}
	return out
}

// rotCell rotates a 4-bit value left by n.
func rotCell(v uint64, n uint) uint64 {
	return ((v << n) | (v >> (4 - n))) & 0xF
}

// mixColumns multiplies the state (as a 4x4 cell matrix, row-major) by the
// involutory matrix M = circ(0, rho, rho^2, rho), where rho is a one-bit
// left rotation of a cell.
func mixColumns(x uint64) uint64 {
	var out uint64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := rotCell(cell(x, ((r+1)&3)*4+c), 1) ^
				rotCell(cell(x, ((r+2)&3)*4+c), 2) ^
				rotCell(cell(x, ((r+3)&3)*4+c), 1)
			out |= v << (60 - 4*(r*4+c))
		}
	}
	return out
}

// subCells applies the cell S-box s to every cell of x.
func subCells(x uint64, s *[16]uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= s[cell(x, i)] << (60 - 4*i)
	}
	return out
}

// lfsr steps one cell of the tweak: (b3,b2,b1,b0) -> (b0^b1, b3, b2, b1).
func lfsr(v uint64) uint64 {
	b0 := v & 1
	b1 := (v >> 1) & 1
	b2 := (v >> 2) & 1
	b3 := (v >> 3) & 1
	return ((b0^b1)<<3 | b3<<2 | b2<<1 | b1)
}

// lfsrInv is the inverse of lfsr.
func lfsrInv(v uint64) uint64 {
	nb3 := (v >> 3) & 1
	nb2 := (v >> 2) & 1
	nb1 := (v >> 1) & 1
	nb0 := v & 1
	b1 := nb0
	b2 := nb1
	b3 := nb2
	b0 := nb3 ^ b1
	return b3<<3 | b2<<2 | b1<<1 | b0
}

// forwardTweak advances the tweak schedule one round.
func forwardTweak(t uint64) uint64 {
	t = permuteCells(t, &hPerm)
	for _, i := range lfsrCells {
		t = withCell(t, i, lfsr(cell(t, i)))
	}
	return t
}

// backwardTweak reverses forwardTweak.
func backwardTweak(t uint64) uint64 {
	for _, i := range lfsrCells {
		t = withCell(t, i, lfsrInv(cell(t, i)))
	}
	return permuteCells(t, &hPermInv)
}

// forwardRound applies one forward round with the given tweakey. A "short"
// round (the first) omits the shuffle and MixColumns.
func (q *Cipher) forwardRound(is, tk uint64, full bool) uint64 {
	is ^= tk
	if full {
		is = permuteCells(is, &tau)
		is = mixColumns(is)
	}
	return subCells(is, &q.s.cell)
}

// backwardRound is the inverse of forwardRound.
func (q *Cipher) backwardRound(is, tk uint64, full bool) uint64 {
	is = subCells(is, &q.s.cellInv)
	if full {
		is = mixColumns(is)
		is = permuteCells(is, &tauInv)
	}
	return is ^ tk
}

// pseudoReflect is the central non-linear reflector keyed by k1.
func (q *Cipher) pseudoReflect(is, k1 uint64) uint64 {
	is = permuteCells(is, &tau)
	is = mixColumns(is)
	is ^= k1
	return permuteCells(is, &tauInv)
}

// w1 derives the output whitening key: o(w0) = (w0 >>> 1) ^ (w0 >> 63).
func (q *Cipher) w1() uint64 {
	return ((q.w0 >> 1) | (q.w0 << 63)) ^ (q.w0 >> 63)
}

// Byte-indexed tables of the cipher's four GF(2)-linear steps. Entry
// [j][b] is the step applied to a state whose only nonzero byte is byte j
// (byte 0 most significant) holding b; by linearity a step on any state is
// the XOR of its eight bytes' entries. Each table is built from the
// per-cell functions above.
var (
	// fwdMix is a full forward round's diffusion: τ, then M.
	fwdMix = linearTable(func(x uint64) uint64 { return mixColumns(permuteCells(x, &tau)) })
	// bwdMix is a full backward round's diffusion: M, then τ⁻¹.
	bwdMix = linearTable(func(x uint64) uint64 { return permuteCells(mixColumns(x), &tauInv) })
	// reflMix is the pseudo-reflector's linear part: τ⁻¹∘M∘τ.
	reflMix = linearTable(func(x uint64) uint64 { return permuteCells(mixColumns(permuteCells(x, &tau)), &tauInv) })
	// tweakStep is forwardTweak: h, then the LFSR on the stepped cells.
	tweakStep = linearTable(forwardTweak)
)

// linearTable tabulates the GF(2)-linear map f byte by byte.
func linearTable(f func(uint64) uint64) *[8][256]uint64 {
	var t [8][256]uint64
	for j := range t {
		for b := range t[j] {
			t[j][b] = f(uint64(b) << (56 - 8*j))
		}
	}
	return &t
}

// linear applies a map tabulated by linearTable.
func linear(t *[8][256]uint64, x uint64) uint64 {
	return t[0][uint8(x>>56)] ^ t[1][uint8(x>>48)] ^ t[2][uint8(x>>40)] ^ t[3][uint8(x>>32)] ^
		t[4][uint8(x>>24)] ^ t[5][uint8(x>>16)] ^ t[6][uint8(x>>8)] ^ t[7][uint8(x)]
}

// subBytes applies a byte-wide S-box table to every byte of x.
func subBytes(x uint64, s *[256]uint8) uint64 {
	return uint64(s[uint8(x>>56)])<<56 | uint64(s[uint8(x>>48)])<<48 |
		uint64(s[uint8(x>>40)])<<40 | uint64(s[uint8(x>>32)])<<32 |
		uint64(s[uint8(x>>24)])<<24 | uint64(s[uint8(x>>16)])<<16 |
		uint64(s[uint8(x>>8)])<<8 | uint64(s[uint8(x)])
}

// Encrypt encrypts one 64-bit block under the given 64-bit tweak. It runs
// the same rounds as forwardRound, pseudoReflect and backwardRound, with
// each linear step and S-box layer read from byte-indexed tables.
func (q *Cipher) Encrypt(plaintext, tweak uint64) uint64 {
	w1 := q.w1()

	// tweaks[i] is forward round i's tweak, which backward round i
	// reuses; t ends as the central tweak.
	var tweaks [len(roundConstants)]uint64
	t := tweak
	for i := 0; i < q.rounds; i++ {
		tweaks[i] = t
		t = linear(tweakStep, t)
	}

	// The first forward round is short: no shuffle, no MixColumns.
	is := subBytes(plaintext^q.w0^q.k0^tweaks[0]^roundConstants[0], &q.s.sb)
	for i := 1; i < q.rounds; i++ {
		is = subBytes(linear(fwdMix, is^q.k0^tweaks[i]^roundConstants[i]), &q.s.sb)
	}

	is = subBytes(linear(fwdMix, is^w1^t), &q.s.sb)
	is = linear(reflMix, is) ^ q.reflKey
	is = linear(bwdMix, subBytes(is, &q.s.sbInv)) ^ q.w0 ^ t

	for i := q.rounds - 1; i > 0; i-- {
		is = linear(bwdMix, subBytes(is, &q.s.sbInv)) ^ q.k0 ^ tweaks[i] ^ roundConstants[i] ^ alpha
	}
	is = subBytes(is, &q.s.sbInv) ^ q.k0 ^ tweaks[0] ^ roundConstants[0] ^ alpha
	return is ^ w1
}

// Decrypt inverts Encrypt for the same tweak. It is implemented as the exact
// structural inverse of Encrypt, so Decrypt(Encrypt(p, t), t) == p for all
// keys and parameters. It runs the per-cell round functions: backwardRound
// undoes a forward round and forwardRound a backward one.
func (q *Cipher) Decrypt(ciphertext, tweak uint64) uint64 {
	w1 := q.w1()
	k1 := q.k0

	// Recompute the tweak schedule: tweaks[i] is the tweak used by forward
	// round i; tweaks[rounds] is the central tweak.
	tweaks := make([]uint64, q.rounds+1)
	t := tweak
	for i := 0; i < q.rounds; i++ {
		tweaks[i] = t
		t = forwardTweak(t)
	}
	tweaks[q.rounds] = t

	is := ciphertext ^ w1

	// Undo the backward rounds (in encryption they ran i = rounds-1 .. 0
	// with tweak stepping backward from the central tweak).
	t = tweaks[q.rounds]
	backTweaks := make([]uint64, q.rounds)
	for i := q.rounds - 1; i >= 0; i-- {
		t = backwardTweak(t)
		backTweaks[i] = t
	}
	for i := 0; i < q.rounds; i++ {
		is = q.forwardRound(is, q.k0^backTweaks[i]^roundConstants[i]^alpha, i != 0)
	}

	// Undo the central section. The reflector tau^-1 . (^k1) . M . tau has
	// inverse tau^-1 . M . (^k1) . tau, which equals the reflector keyed by
	// M(k1) because M is linear and involutory.
	is = q.forwardRound(is, q.w0^tweaks[q.rounds], true)
	is = q.pseudoReflect(is, mixColumns(k1))
	is = q.backwardRound(is, w1^tweaks[q.rounds], true)

	// Undo the forward rounds.
	for i := q.rounds - 1; i >= 0; i-- {
		is = q.backwardRound(is, q.k0^tweaks[i]^roundConstants[i], i != 0)
	}
	return is ^ q.w0
}
