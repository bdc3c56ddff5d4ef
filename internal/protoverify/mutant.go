package protoverify

import "aos/internal/isa"

// MutateFunc wraps the checker-facing sink with a stream transformer that
// models a broken instrumentation rewriter: the machine still executes
// faithfully (tables, heap, PA unit), but the op stream the contract sees
// is corrupted the way a buggy backend would corrupt it. Verifying a
// mutant must produce a counterexample — that is the regression test for
// the checker's own teeth.
type MutateFunc func(next isa.Sink) isa.Sink

// Mutant is one named seeded defect.
type Mutant struct {
	// Name selects the mutant (aosverify -mutant).
	Name string
	// Desc says what the seeded defect models.
	Desc string
	// Wrap installs the stream transformer.
	Wrap MutateFunc
}

// Mutants returns the seeded-defect registry, in stable order.
func Mutants() []Mutant {
	return []Mutant{
		{
			Name: "drop-xpacm",
			Desc: "free-side xpacm strip never emitted (allocator runs on a signed pointer)",
			Wrap: dropIf(func(in *isa.Inst) bool { return in.Op == isa.OpXpacm }),
		},
		{
			Name: "drop-resign",
			Desc: "free-side re-signing pacma (xzr size) never emitted — no temporal-safety lock",
			Wrap: dropIf(func(in *isa.Inst) bool { return in.Op == isa.OpPacma && in.Size == 0 }),
		},
		{
			Name: "drop-bndclr",
			Desc: "free-side bndclr never emitted (bounds stay live across free)",
			Wrap: dropIf(func(in *isa.Inst) bool { return in.Op == isa.OpBndclr }),
		},
		{
			Name: "unflag-resize",
			Desc: "table resizes not announced: the Resize flag is stripped from bndstr",
			Wrap: func(next isa.Sink) isa.Sink {
				return mapSink{next: next, f: func(in isa.Inst) isa.Inst {
					in.Resize = false
					return in
				}}
			},
		},
		{
			Name: "double-bndstr",
			Desc: "every bndstr emitted twice (bounds double-inserted without a pacma)",
			Wrap: func(next isa.Sink) isa.Sink {
				return dupSink{next: next, dup: func(in *isa.Inst) bool { return in.Op == isa.OpBndstr }}
			},
		},
	}
}

// MutantByName looks a mutant up (ok=false when unknown).
func MutantByName(name string) (Mutant, bool) {
	for _, mu := range Mutants() {
		if mu.Name == name {
			return mu, true
		}
	}
	return Mutant{}, false
}

// dropIf builds a MutateFunc that swallows matching instructions.
func dropIf(match func(*isa.Inst) bool) MutateFunc {
	return func(next isa.Sink) isa.Sink {
		return filterSink{next: next, drop: match}
	}
}

type filterSink struct {
	next isa.Sink
	drop func(*isa.Inst) bool
}

func (s filterSink) Emit(in *isa.Inst) {
	if !s.drop(in) {
		s.next.Emit(in)
	}
}

type mapSink struct {
	next isa.Sink
	f    func(isa.Inst) isa.Inst
}

func (s mapSink) Emit(in *isa.Inst) {
	out := s.f(*in)
	s.next.Emit(&out)
}

type dupSink struct {
	next isa.Sink
	dup  func(*isa.Inst) bool
}

func (s dupSink) Emit(in *isa.Inst) {
	s.next.Emit(in)
	if s.dup(in) {
		cp := *in
		s.next.Emit(&cp)
	}
}
