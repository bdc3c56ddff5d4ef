// Package tracecheck is a streaming sanitizer for the dynamic-instruction
// protocol the functional machine (internal/core) promises the timing model
// (internal/cpu). The paper's evaluation is only meaningful if the
// instrumentation contract of §IV/Fig 7 actually holds in every emitted
// stream — pacma+bndstr after malloc, bndclr+xpacm before free and a
// re-signing pacma after it, no signed dereference resolving to a live HBT
// way once its bounds were cleared — so the checker enforces that contract
// always-on, the way PACSan/CryptSan-style sanitizers validate PA-based
// systems.
//
// The Checker implements isa.Sink, so it can tee any live functional run
// (aos.Options.Sanitize, aossim's default mode, aosbench -sanitize) or a
// replayed trace. It keeps an independent shadow bounds table built from
// the bndstr/bndclr stream itself — using the very same hbt compression
// and coverage predicates the real table uses — and cross-checks every
// signed access's resolved HomeWay against it. Violations are structured
// (op index, PC, rule ID, explanation) and never panic or abort the run.
package tracecheck

import (
	"fmt"
	"math/bits"
	"strings"

	"aos/internal/hbt"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/pa"
)

// Rule identifiers. Stable strings: tests, CI greps and docs refer to them.
const (
	// RuleOpWhitelist fires when a scheme's stream contains an op class the
	// scheme must never emit (e.g. OpPacma in a Watchdog trace), or an op
	// byte outside the ISA entirely (corrupt trace).
	RuleOpWhitelist = "TC01-op-whitelist"
	// RulePacmaBndstr fires when an allocation-side pacma is not
	// immediately followed by a bndstr for the same signed pointer (Fig 7a).
	RulePacmaBndstr = "TC02-pacma-bndstr"
	// RuleBndstr fires on a bndstr whose fields are inconsistent (not
	// signed, PAC/AHC not matching the address bits, way out of range, or
	// no pacma pending).
	RuleBndstr = "TC03-bndstr"
	// RuleFreeProtocol fires when the free-side sequence breaks: a
	// successful bndclr must be followed by xpacm, and the allocation must
	// be re-signed (pacma with the freed base) before any further bounds op
	// (Fig 7b temporal-safety lock).
	RuleFreeProtocol = "TC04-free-protocol"
	// RuleUseAfterClear fires when a signed access reports a live HomeWay
	// for an allocation whose bounds were already cleared — the exact
	// temporal-safety hole the paper closes.
	RuleUseAfterClear = "TC05-use-after-clear"
	// RuleSignedAccess fires when a signed access's reported HomeWay
	// disagrees with the shadow bounds table (claims a hit with no covering
	// bounds, or a miss while covering bounds exist).
	RuleSignedAccess = "TC06-signed-access"
	// RuleWayRange fires when a reported HBT way index falls outside the
	// configured associativity.
	RuleWayRange = "TC07-way-range"
	// RuleAssoc fires when the reported associativity shrinks, exceeds
	// hbt.MaxAssoc, grows without a resize-flagged bndstr, or the reported
	// RowAddr is inconsistent with the table geometry (Eq. 1+2).
	RuleAssoc = "TC08-assoc"
	// RulePACFields fires when an instruction's Signed/PAC/AHC fields do
	// not match the PAC/AHC bits embedded in its address.
	RulePACFields = "TC09-pac-fields"
	// RuleRegDef fires when a source register is read before any
	// instruction defined it (register 0 is the always-ready zero/initial
	// register by machine convention).
	RuleRegDef = "TC10-reg-use-before-def"
	// RuleCallRet fires when returns outnumber calls at any point in the
	// stream (negative nesting depth).
	RuleCallRet = "TC11-call-ret-nesting"
	// RuleRASPairing fires under return-address-signing schemes when a call
	// is not immediately preceded by pacia or a ret by autia (Fig 3).
	RuleRASPairing = "TC12-ras-pairing"
	// RuleStreamEnd fires at Finish when the stream stops mid-protocol
	// (pacma without its bndstr, or a free missing its xpacm/re-sign).
	RuleStreamEnd = "TC13-stream-end"
	// RuleMTETagging fires under MTE when the tagging sequence breaks: an
	// irg not immediately followed by its first stg, or an stg appearing
	// outside a tagging burst (after irg, another stg, or the allocator
	// ret of a free).
	RuleMTETagging = "TC14-mte-tagging"
)

// Violation is one detected protocol break.
type Violation struct {
	// Scheme is the protection scheme whose contract was violated.
	Scheme instrument.Scheme
	// Index is the 0-based position of the offending instruction in the
	// stream (for RuleStreamEnd: the stream length).
	Index uint64
	// PC is the instruction's program counter.
	PC uint64
	// Op is the instruction class.
	Op isa.Op
	// Rule is the stable rule identifier (TCnn-...).
	Rule string
	// Detail explains the violation.
	Detail string
}

// String renders a violation on one line: scheme, op index, location,
// rule, explanation.
func (v Violation) String() string {
	return fmt.Sprintf("%s inst %d (pc %#x, %s): %s: %s", v.Scheme, v.Index, v.PC, v.Op, v.Rule, v.Detail)
}

// Error aggregates a run's violations as an error value.
type Error struct {
	// Scheme is the protection scheme the stream was checked against.
	Scheme instrument.Scheme
	// Job is the serving layer's correlation id for the checked run
	// (empty for batch runs). When set, every rendered message carries
	// it so a violation in a daemon log can be joined back to the job's
	// trace and event stream.
	Job string
	// Violations holds the recorded violations (capped; Total has the
	// uncapped count).
	Violations []Violation
	// Total is the number of violations detected, including any dropped
	// past the recording cap.
	Total int
}

// jobTag renders the correlation prefix ("job <id> " or "").
func (e *Error) jobTag() string {
	if e.Job == "" {
		return ""
	}
	return "job " + e.Job + " "
}

// Error implements error.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return fmt.Sprintf("tracecheck: %s%d protocol violations under %s", e.jobTag(), e.Total, e.Scheme)
	}
	s := fmt.Sprintf("tracecheck: %s%d protocol violation(s) under %s; first: %s",
		e.jobTag(), e.Total, e.Scheme, e.Violations[0])
	if e.Total > 1 {
		s += fmt.Sprintf(" (+%d more)", e.Total-1)
	}
	return s
}

// Report renders every recorded violation, one per line (each line
// prefixed with the job correlation id when one is set).
func (e *Error) Report() string {
	var b strings.Builder
	for _, v := range e.Violations {
		b.WriteString(e.jobTag())
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	if e.Total > len(e.Violations) {
		fmt.Fprintf(&b, "... and %d more violations (recording capped)\n", e.Total-len(e.Violations))
	}
	return b.String()
}

// DefaultMaxViolations caps how many violations a Checker records; counting
// continues past the cap so Total stays exact.
const DefaultMaxViolations = 64

// shadowEntry is one live bounds entry reconstructed from the stream.
type shadowEntry struct {
	// word is the compressed bounds word, built with the real hbt encoder
	// so coverage/base tests match the hardware semantics bit-for-bit.
	word uint64
	// way is the HBT way the bndstr reported (stable across migrations:
	// resizing copies rows slot-for-slot).
	way int8
}

// pendingAlloc tracks a pacma awaiting its bndstr.
type pendingAlloc struct {
	pac uint16
	va  uint64
	ahc uint8
	idx uint64
}

// freePhase is the position inside the Fig 7b free sequence.
type freePhase int

const (
	freeIdle freePhase = iota
	// freeWantXpacm: a successful bndclr just retired; the very next
	// instruction must strip the pointer.
	freeWantXpacm
	// freeWantResign: the allocator is running on the stripped pointer; a
	// re-signing pacma for the freed base must appear before any other
	// bounds operation.
	freeWantResign
)

// Checker verifies one scheme's dynamic-instruction stream. It implements
// isa.Sink. Not safe for concurrent use; tee one Checker per stream.
type Checker struct {
	scheme instrument.Scheme
	job    string // serving-layer correlation id; "" for batch runs
	ct     *Contract
	maxRec int

	idx        uint64
	violations []Violation
	total      int

	// Shadow HBT state.
	live    map[uint16]map[uint64]shadowEntry // pac -> base VA -> entry
	cleared map[uint16]map[uint64]uint64      // pac -> base VA -> compressed word
	assoc   int
	base    uint64 // current table base derived from RowAddr reports

	// Protocol state machines.
	pending   *pendingAlloc
	phase     freePhase
	freeVA    uint64
	freeIdx   uint64
	prevOp    isa.Op
	havePrev  bool
	callDepth int64
	// mteWantSTG: an irg just retired; the next instruction must be its
	// first stg (TC14).
	mteWantSTG bool

	// Register definedness (register 0 is pre-defined by convention: the
	// machine's lastALU/lastLoad start there).
	regDef [isa.NumRegs]bool

	// cov, when enabled, counts how often each rule's predicate evaluated
	// on armed state (see coverage.go); nil keeps the hot path to one
	// pointer compare per touch point.
	cov []uint64
}

// New builds a checker for the given scheme with the default recording cap.
func New(scheme instrument.Scheme) *Checker {
	c := &Checker{
		scheme:  scheme,
		maxRec:  DefaultMaxViolations,
		live:    make(map[uint16]map[uint64]shadowEntry),
		cleared: make(map[uint16]map[uint64]uint64),
	}
	c.ct = contractFor(scheme)
	c.regDef[0] = true
	return c
}

// SetJob attaches the serving layer's correlation id to the checker:
// the Error it reports (and every Report line) then carries the id, so
// sanitizer verdicts in daemon logs join the job's trail. Empty resets.
func (c *Checker) SetJob(id string) { c.job = id }

// SetMaxViolations adjusts the recording cap (minimum 1).
func (c *Checker) SetMaxViolations(n int) {
	if n < 1 {
		n = 1
	}
	c.maxRec = n
}

// allowedOps derives the per-scheme op whitelist from the instrumentation
// predicates, so a new scheme automatically gets a contract.
func allowedOps(s instrument.Scheme) [isa.NumOps]bool {
	ok := baseAllowedOps(s)
	if s.UsesMemoryTagging() {
		ok[isa.OpIRG] = true
		ok[isa.OpSTG] = true
	}
	return ok
}

func baseAllowedOps(s instrument.Scheme) [isa.NumOps]bool {
	var ok [isa.NumOps]bool
	for _, op := range []isa.Op{isa.OpNop, isa.OpALU, isa.OpMul, isa.OpFP,
		isa.OpLoad, isa.OpStore, isa.OpBranch, isa.OpCall, isa.OpRet} {
		ok[op] = true
	}
	if s.HasWatchdogChecks() {
		for _, op := range []isa.Op{isa.OpWDCheck, isa.OpWDMeta, isa.OpWDSetID, isa.OpWDClrID} {
			ok[op] = true
		}
	}
	if s.SignsDataPointers() {
		for _, op := range []isa.Op{isa.OpPacma, isa.OpXpacm, isa.OpAutm, isa.OpBndstr, isa.OpBndclr} {
			ok[op] = true
		}
	}
	if s.HasReturnAddressSigning() || (s.HasOnLoadAuth() && !s.UsesAutm()) {
		ok[isa.OpPacia] = true
		ok[isa.OpAutia] = true
	}
	return ok
}

func (c *Checker) report(in *isa.Inst, rule, format string, args ...interface{}) {
	c.total++
	if c.cov != nil {
		if i, ok := ruleIdx[rule]; ok {
			c.cov[i]++
		}
	}
	if len(c.violations) < c.maxRec {
		c.violations = append(c.violations, Violation{
			Scheme: c.scheme,
			Index:  c.idx,
			PC:     in.PC,
			Op:     in.Op,
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns the recorded violations so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the exact violation count (recording cap excluded).
func (c *Checker) Total() int { return c.total }

// Err returns the violations as an error, or nil when the stream is clean.
// Call Finish first so end-of-stream checks run.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return &Error{Scheme: c.scheme, Job: c.job, Violations: c.violations, Total: c.total}
}

// Finish runs the contract's end-of-stream checks and returns all
// recorded violations. Call once, after the final Emit.
func (c *Checker) Finish() []Violation {
	c.touch(idxStreamEnd)
	end := isa.Inst{Op: isa.OpNop}
	for _, f := range c.ct.Finish {
		f(c, &end)
	}
	return c.violations
}

// EmitBatch implements isa.BatchSink: every instruction is checked in
// order, exactly as scalar Emit calls would.
func (c *Checker) EmitBatch(batch []isa.Inst) {
	for i := range batch {
		c.Emit(&batch[i])
	}
}

// Emit implements isa.Sink: checks one instruction against the scheme's
// registered contract and updates the shadow state. The instruction is
// not mutated.
func (c *Checker) Emit(in *isa.Inst) {
	c.touch(idxOpWhitelist)
	if int(in.Op) >= isa.NumOps {
		c.report(in, RuleOpWhitelist, "op byte %d outside the ISA", uint8(in.Op))
		c.idx++
		return
	}
	if !c.ct.Allowed[in.Op] {
		c.report(in, RuleOpWhitelist, "op %s must never appear in a %s stream", in.Op, c.scheme)
	}

	for _, r := range c.ct.Rules {
		r(c, in)
	}

	if in.Dest != isa.RegNone && int(in.Dest) < isa.NumRegs {
		c.regDef[in.Dest] = true
	}
	c.prevOp, c.havePrev = in.Op, true
	c.idx++
}

// checkRegs enforces use-before-def on the dependency registers.
func (c *Checker) checkRegs(in *isa.Inst) {
	for _, r := range [2]uint8{in.Src1, in.Src2} {
		if r == isa.RegNone {
			continue
		}
		c.touch(idxRegDef)
		if int(r) >= isa.NumRegs {
			c.report(in, RuleRegDef, "source register %d outside the register file", r)
			continue
		}
		if !c.regDef[r] {
			c.report(in, RuleRegDef, "source register %d read before any definition", r)
		}
	}
}

// checkFields verifies that the Signed/PAC/AHC metadata matches the bits
// embedded in the instruction's address, and that unsigned schemes never
// mark accesses signed.
func (c *Checker) checkFields(in *isa.Inst) {
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		c.touch(idxPACFields)
		if in.Signed && !c.scheme.SignsDataPointers() {
			c.report(in, RulePACFields, "signed access under non-signing scheme %s", c.scheme)
			return
		}
		if c.scheme.SignsDataPointers() && in.Signed != pa.IsSigned(in.Addr) {
			c.report(in, RulePACFields,
				"Signed=%v disagrees with address AHC bits (%#x)", in.Signed, in.Addr)
		}
	case isa.OpBndstr, isa.OpBndclr:
		c.touch(idxPACFields)
	default:
		return
	}
	if !in.Signed {
		return
	}
	if got, want := in.PAC, pa.PAC(in.Addr); got != want {
		c.report(in, RulePACFields, "PAC field %#04x != address PAC %#04x", got, want)
	}
	if got, want := in.AHC, pa.AHC(in.Addr); got != want {
		c.report(in, RulePACFields, "AHC field %d != address AHC %d", got, want)
	}
}

// checkGeometry validates Assoc/HomeWay/RowAddr on any instruction
// reporting HBT coordinates, and tracks resizes. Returns false when the
// geometry is too broken to use for shadow checks.
func (c *Checker) checkGeometry(in *isa.Inst) bool {
	assoc := int(in.Assoc)
	if assoc < 1 || assoc > hbt.MaxAssoc || assoc&(assoc-1) != 0 {
		c.report(in, RuleAssoc, "reported associativity %d invalid", assoc)
		return false
	}
	if c.assoc != 0 && assoc != c.assoc {
		// A transition is the armed case for TC08: shrink, or growth that
		// must carry the resize flag.
		c.touch(idxAssoc)
	}
	if c.assoc != 0 && assoc < c.assoc {
		c.report(in, RuleAssoc, "associativity shrank %d -> %d (HBT only grows)", c.assoc, assoc)
		return false
	}
	if c.assoc != 0 && assoc > c.assoc && !(in.Op == isa.OpBndstr && in.Resize) {
		c.report(in, RuleAssoc,
			"associativity grew %d -> %d without a resize-flagged bndstr", c.assoc, assoc)
	}
	logA := uint(bits.TrailingZeros(uint(assoc)))
	derivedBase := in.RowAddr - uint64(in.PAC)<<(logA+6)
	switch {
	case c.assoc == 0 || assoc > c.assoc:
		// First observation, or a fresh post-resize table: adopt the base.
		c.assoc, c.base = assoc, derivedBase
	case derivedBase != c.base:
		c.report(in, RuleAssoc,
			"RowAddr %#x inconsistent with table base %#x (pac %#04x, %d ways)",
			in.RowAddr, c.base, in.PAC, assoc)
	}
	if in.HomeWay >= 0 {
		c.touch(idxWayRange)
	}
	if int(in.HomeWay) >= assoc {
		c.report(in, RuleWayRange, "HomeWay %d outside %d-way row", in.HomeWay, assoc)
		return false
	}
	return true
}

// onPacma handles both pacma roles: the allocation-side signing (Fig 7a,
// followed by bndstr) and the free-side re-signing lock (Fig 7b).
func (c *Checker) onPacma(in *isa.Inst) {
	va := pa.VA(in.Addr)
	if c.phase == freeWantResign {
		c.touch(idxFreeProtocol)
		if va == c.freeVA {
			c.phase = freeIdle // temporal-safety lock applied
			return
		}
		c.report(in, RuleFreeProtocol,
			"pacma for %#x while freed chunk %#x (bndclr at inst %d) awaits its re-sign",
			va, c.freeVA, c.freeIdx)
		c.phase = freeIdle
	}
	if !pa.IsSigned(in.Addr) {
		c.report(in, RulePACFields, "pacma produced an unsigned pointer %#x", in.Addr)
	}
	c.pending = &pendingAlloc{pac: pa.PAC(in.Addr), va: va, ahc: pa.AHC(in.Addr), idx: c.idx}
}

// onBndstr matches the pending pacma, validates geometry, and inserts the
// allocation into the shadow table.
func (c *Checker) onBndstr(in *isa.Inst) {
	c.touch(idxBndstr)
	p := c.pending
	c.pending = nil
	if p == nil {
		c.report(in, RuleBndstr, "bndstr without a preceding pacma")
	} else if pa.VA(in.Addr) != p.va || pa.PAC(in.Addr) != p.pac {
		c.report(in, RuleBndstr,
			"bndstr (va %#x pac %#04x) does not match pacma at inst %d (va %#x pac %#04x)",
			pa.VA(in.Addr), pa.PAC(in.Addr), p.idx, p.va, p.pac)
	}
	if !in.Signed {
		c.report(in, RuleBndstr, "bndstr not marked signed")
		return
	}
	if !c.checkGeometry(in) {
		return
	}
	if in.HomeWay < 0 {
		c.report(in, RuleBndstr, "bndstr reported no home way (insertions always land after resize)")
		return
	}
	base := pa.VA(in.Addr)
	word, err := hbt.Compress(base, sizeOrMin(uint64(in.Size)))
	if err != nil {
		c.report(in, RuleBndstr, "bounds not encodable: %v", err)
		return
	}
	row := c.live[in.PAC]
	if row == nil {
		row = make(map[uint64]shadowEntry)
		c.live[in.PAC] = row
	}
	if _, dup := row[base]; dup {
		c.report(in, RuleBndstr, "bndstr for %#x while its bounds are already live (double insert)", base)
	}
	row[base] = shadowEntry{word: word, way: in.HomeWay}
	if cl := c.cleared[in.PAC]; cl != nil {
		delete(cl, base) // address recycled by a fresh allocation
	}
}

// onBndclr validates the clear against the shadow table and arms the
// free-protocol expectations.
func (c *Checker) onBndclr(in *isa.Inst) {
	c.touch(idxFreeProtocol)
	if c.phase == freeWantResign {
		c.report(in, RuleFreeProtocol,
			"bndclr while freed chunk %#x (bndclr at inst %d) awaits its re-sign", c.freeVA, c.freeIdx)
		c.phase = freeIdle
	}
	if !c.checkGeometry(in) {
		return
	}
	base := pa.VA(in.Addr)
	row := c.live[in.PAC]
	// Find the shadow entry bndclr should have hit: same row, stored lower
	// bound matching the freed base (the hardware's occupancy test).
	matchBase, found := uint64(0), false
	for b, e := range row { //aoslint:allow mapiter — membership scan; first match semantics guarded below
		if hbt.MatchesBase(e.word, base) {
			if !found || e.way == in.HomeWay {
				matchBase, found = b, true
			}
		}
	}
	signed := in.Signed && pa.IsSigned(in.Addr)
	switch {
	case in.HomeWay < 0:
		// The machine reports a miss for double/invalid frees and for
		// unsigned pointers. A miss while matching live bounds exist (for a
		// genuinely signed pointer) is a protocol bug.
		if found && signed {
			c.report(in, RuleSignedAccess,
				"bndclr missed live bounds for %#x (shadow way %d)", base, row[matchBase].way)
		} else if c.cov != nil && !found && c.clearedCovers(in.PAC, base) {
			// Double free correctly detected against cleared bounds: the
			// armed (non-firing) case of TC05.
			c.touch(idxUseAfterClear)
		}
	case !found:
		c.report(in, RuleUseAfterClear,
			"bndclr reported way %d for %#x but no such bounds are live (double free not detected)",
			in.HomeWay, base)
	default:
		if e := row[matchBase]; e.way != in.HomeWay {
			c.report(in, RuleSignedAccess,
				"bndclr way %d != way %d recorded by the matching bndstr", in.HomeWay, e.way)
		}
		cl := c.cleared[in.PAC]
		if cl == nil {
			cl = make(map[uint64]uint64)
			c.cleared[in.PAC] = cl
		}
		cl[matchBase] = row[matchBase].word
		delete(row, matchBase)
		// Successful clear: the Fig 7b sequence must continue.
		c.phase, c.freeVA, c.freeIdx = freeWantXpacm, base, c.idx
	}
}

// onSignedAccess cross-checks a checked load/store against the shadow
// bounds, distinguishing use-after-clear from plain resolution bugs.
func (c *Checker) onSignedAccess(in *isa.Inst) {
	c.touch(idxSignedAccess)
	if !c.checkGeometry(in) {
		return
	}
	va := pa.VA(in.Addr)
	covered, wayOK := false, false
	for _, e := range c.live[in.PAC] { //aoslint:allow mapiter — order-free membership scan
		if hbt.Covers(e.word, va) {
			covered = true
			if e.way == in.HomeWay {
				wayOK = true
			}
		}
	}
	switch {
	case in.HomeWay < 0 && covered:
		c.report(in, RuleSignedAccess,
			"access to %#x reported a bounds miss while covering bounds are live", va)
	case in.HomeWay >= 0 && !covered:
		if c.clearedCovers(in.PAC, va) {
			c.report(in, RuleUseAfterClear,
				"access to %#x resolved to way %d after its bounds were cleared (UAF not detected)",
				va, in.HomeWay)
		} else {
			c.report(in, RuleSignedAccess,
				"access to %#x reported way %d but no covering bounds were ever stored", va, in.HomeWay)
		}
	case in.HomeWay >= 0 && !wayOK:
		c.report(in, RuleSignedAccess,
			"access to %#x resolved to way %d; covering bounds live in a different way", va, in.HomeWay)
	case in.HomeWay < 0:
		// Correct miss. When cleared bounds cover the address this is a
		// correctly-detected UAF — the armed (non-firing) case of TC05.
		if c.cov != nil && c.clearedCovers(in.PAC, va) {
			c.touch(idxUseAfterClear)
		}
	}
}

// clearedCovers reports whether va falls inside bounds that were live once
// and have since been cleared (temporal-safety classification).
func (c *Checker) clearedCovers(pac uint16, va uint64) bool {
	for _, w := range c.cleared[pac] { //aoslint:allow mapiter — order-free membership scan
		if hbt.Covers(w, va) {
			return true
		}
	}
	return false
}

// sizeOrMin mirrors the functional machine: zero-size allocations are
// stored with a minimal 16-byte chunk (malloc(0) stays representable).
func sizeOrMin(size uint64) uint64 {
	if size == 0 {
		return 16
	}
	return size
}
