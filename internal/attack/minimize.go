package attack

// Minimize greedily deletes steps while the program stays structurally
// well-formed (validate) and keep still holds (keep is the "still
// interesting" predicate — e.g. "still escapes under scheme S"). Passes
// repeat until a fixpoint, so the result is 1-minimal: removing any single
// remaining step either breaks the structure or the property. Any step may
// be a deletion candidate; an attack minimization keeps exactly one attack
// step by checking Validate in keep. Deleting a step that produces a slot
// renumbers later slots (and is skipped while any surviving step still
// references the slot).
func Minimize(p *Program, keep func(*Program) bool) *Program {
	cur := &Program{Class: p.Class, Seed: p.Seed, Steps: append([]Step(nil), p.Steps...)}
	if !keep(cur) {
		return cur // the property does not even hold on the input
	}
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(cur.Steps); i++ {
			cand := deleteStep(cur, i)
			if cand == nil || validate(cand.Steps) != nil || !keep(cand) {
				continue
			}
			cur = cand
			shrunk = true
			i-- // the slot that replaced i is a fresh candidate
		}
	}
	return cur
}

// deleteStep builds a copy of p without step i, renumbering slots when a
// slot-producing step is removed. Returns nil when the deletion is
// structurally impossible (a surviving step still uses the deleted slot).
func deleteStep(p *Program, i int) *Program {
	steps := make([]Step, 0, len(p.Steps)-1)
	steps = append(steps, p.Steps[:i]...)
	steps = append(steps, p.Steps[i+1:]...)
	if producesSlot(p.Steps[i].Kind) {
		removed := slotsBefore(p.Steps, i)
		for j := range steps {
			if !usesSlot(steps[j].Kind) {
				continue
			}
			switch {
			case steps[j].Slot == removed:
				return nil
			case steps[j].Slot > removed:
				steps[j].Slot--
			}
		}
	}
	return &Program{Class: p.Class, Seed: p.Seed, Steps: steps}
}

// slotsBefore counts the slots the steps before step i produce: the slot
// step i's result takes when it produces one.
func slotsBefore(steps []Step, i int) int {
	n := 0
	for _, st := range steps[:i] {
		if producesSlot(st.Kind) {
			n++
		}
	}
	return n
}

// producesSlot reports whether the kind's result takes the next slot.
func producesSlot(k Kind) bool { return k == KAlloc || k == KRealloc }

// usesSlot reports whether the kind references a slot.
func usesSlot(k Kind) bool {
	switch k {
	case KAlloc, KFree, KLoad, KStore, KOverflow, KHeaderStore, KFreeOff, KScribble, KRealloc:
		return true
	default:
		return false
	}
}
