package bpred

// State is a deep copy of a TAGE predictor, taken by Snapshot. TAGE state
// is a fixed ~25 KiB (bimodal table + 4 tagged banks), so checkpoints copy
// it outright.
type State struct {
	tageState
}

// Snapshot deep-copies the predictor.
func (t *TAGE) Snapshot() *State {
	s := &State{t.tageState}
	s.base = append([]int8(nil), t.base...)
	for b := range t.banks {
		s.banks[b] = append([]tagEntry(nil), t.banks[b]...)
	}
	return s
}

// Restore rewinds the predictor to a snapshot, copying the tables into its
// own and rebuilding the fold registers from the restored history. The
// snapshot stays valid.
func (t *TAGE) Restore(s *State) {
	base, banks := t.base, t.banks
	t.tageState = s.tageState
	t.base, t.banks = base, banks
	copy(t.base, s.base)
	for b := range t.banks {
		copy(t.banks[b], s.banks[b])
	}
	t.refold()
}
