package mcu

// BWBState is a deep copy of the bounds-way buffer. The BWB is a fixed-size
// value struct (recency-ordered entry words + stats), so a struct copy is a
// full deep copy.
type BWBState struct {
	bwb BWB
}

// Snapshot copies the buffer.
func (b *BWB) Snapshot() *BWBState { return &BWBState{bwb: *b} }

// Restore rewinds the buffer to a snapshot. The snapshot stays valid for
// further restores.
func (b *BWB) Restore(s *BWBState) { *b = s.bwb }
