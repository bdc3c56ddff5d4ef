package sampling

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/isa"
	"aos/internal/workload"
)

// KeySpec names a checkpoint: the full identity of the simulation cell (a
// scheme changes the architectural trace, so schemes never share
// checkpoints) plus the schedule and the boundary the checkpoint was taken
// at — Boundary i < Schedule.Windows is the end of window i's U segment,
// and Boundary Schedule.Windows is the end of the run. The key is the
// sha256 of the spec's canonical JSON — struct field order is fixed, so
// encoding/json is canonical here.
type KeySpec struct {
	Benchmark    string   `json:"benchmark"`
	Seed         int64    `json:"seed"`
	Instructions uint64   `json:"instructions"`
	Scheme       string   `json:"scheme"`
	Variant      string   `json:"variant,omitempty"`
	Schedule     Schedule `json:"schedule"`
	Boundary     int      `json:"boundary"`
}

// Hash returns the content address for this spec.
func (k KeySpec) Hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// KeySpec contains only marshal-safe field types.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Checkpoint is a complete simulation state at one boundary: the
// functional machine (kernel, heap, and the memory pages that also hold
// the HBT rows and MTE tags — memory is copy-on-write, so checkpoints
// share untouched pages), the timing core
// (caches, predictor, BWB, queues, clocks, stats), and the workload's loop
// position (PRNG, live chunks, cursors). All three are immutable deep
// copies; any number of cells may restore from the same checkpoint.
type Checkpoint struct {
	Machine *core.MachineState
	Core    *cpu.CoreState
	Runner  *workload.RunnerState
	// Warm is the machine's counts at the start of the measurement
	// region (Result.WarmCounts): a window's checkpoint lies past its U
	// segment, so a run that restores window 0's cannot read them off
	// the machine.
	Warm isa.Counts
}

// Store is a content-addressed, in-memory checkpoint store shared across
// the runs of a matrix (and across repeated invocations when the caller
// keeps it alive). Safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	m      map[string]*Checkpoint
	hits   uint64
	misses uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: make(map[string]*Checkpoint)} }

// Get returns the checkpoint at key, counting the lookup as a hit or miss.
func (s *Store) Get(key string) (*Checkpoint, bool) {
	s.mu.RLock()
	cp, ok := s.m[key]
	s.mu.RUnlock()
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return cp, ok
}

// Put stores a checkpoint. The first writer wins: a concurrent duplicate
// of a deterministic checkpoint is identical by construction, so the
// existing entry is kept.
func (s *Store) Put(key string, cp *Checkpoint) {
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		s.m[key] = cp
	}
	s.mu.Unlock()
}

// Stats reports lifetime lookup counters and the entry count.
func (s *Store) Stats() (hits, misses uint64, entries int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hits, s.misses, len(s.m)
}

// Keys returns the stored keys, sorted (for deterministic reporting).
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m { //aoslint:allow mapiter — order-free: sorted before return
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
