// Package sampling implements SMARTS-style systematic sampling for the
// simulator: the measured region of a run is tiled with repeating
// [detail-warmup][measurement window][fast-forward gap] segments, only the
// windows are simulated with the full timing model, and whole-run cycle
// counts are extrapolated from the window CPI with a confidence interval.
// Checkpoints of the complete simulation state (functional machine, timing
// core, workload position) taken at the end of each window's detailed
// warm-up and at the end of the run are content-addressed in a Store, so
// later runs of the same cell skip every fast-forward gap, the tail
// included, and every warm-up: a resumed window starts at its
// measurement.
package sampling

import "fmt"

// Schedule is the U/W/F layout of a sampled run over a measured region of
// `region` program instructions following `Warmup` functional-warming
// instructions. Window i's segments, in program-instruction positions
// relative to the run start:
//
//	[start_i, start_i+Detail)           detailed warmup (U): timing model
//	                                    runs, cycles excluded from estimate
//	[start_i+Detail, start_i+Detail+Window)  measurement window (W)
//	[window end, start_{i+1})           fast-forward gap (F)
//
// with start_i = Warmup + i*(Detail+Window+Gap).
type Schedule struct {
	Warmup  uint64 `json:"warmup"`
	Detail  uint64 `json:"detail"`
	Window  uint64 `json:"window"`
	Gap     uint64 `json:"gap"`
	Windows int    `json:"windows"`
}

// Default U/W sizes: long enough for the pipeline/queue transient after a
// mode switch to die out (hundreds of instructions), short enough that the
// detailed fraction of a sampled run stays small.
const (
	DefaultDetail  = 2_000
	DefaultWindow  = 8_000
	DefaultWindows = 10
)

// Normalize fills defaults and derives the gap so the schedule tiles the
// measured region; it returns an error when the schedule cannot fit.
func (s Schedule) Normalize(region uint64) (Schedule, error) {
	if s.Windows == 0 {
		s.Windows = DefaultWindows
	}
	if s.Detail == 0 {
		s.Detail = DefaultDetail
	}
	if s.Window == 0 {
		s.Window = DefaultWindow
	}
	if s.Windows < 2 {
		return s, fmt.Errorf("sampling: need at least 2 windows for a variance estimate, got %d", s.Windows)
	}
	n := uint64(s.Windows)
	uw := s.Detail + s.Window
	if s.Window == 0 || uw*n > region {
		return s, fmt.Errorf("sampling: %d windows of %d detailed instructions exceed the %d-instruction region",
			s.Windows, uw, region)
	}
	if s.Gap == 0 {
		// Systematic sampling: spread the windows evenly, leaving the
		// final gap (the tail) the same length as the others.
		s.Gap = (region - n*uw) / n
	}
	span := (n-1)*(uw+s.Gap) + uw
	if span > region {
		return s, fmt.Errorf("sampling: schedule spans %d instructions, region is %d", span, region)
	}
	return s, nil
}

// Validate reports whether the schedule is normalized and self-consistent.
func (s Schedule) Validate(region uint64) error {
	n, err := s.Normalize(region)
	if err != nil {
		return err
	}
	if n != s {
		return fmt.Errorf("sampling: schedule is not normalized (want %+v)", n)
	}
	return nil
}

// Start returns window i's U-segment start position in program
// instructions from the beginning of the run.
func (s Schedule) Start(i int) uint64 {
	return s.Warmup + uint64(i)*(s.Detail+s.Window+s.Gap)
}

// DetailedInsts returns the number of program instructions consumed by the
// timing model under this schedule (the rest fast-forwards).
func (s Schedule) DetailedInsts() uint64 {
	return uint64(s.Windows) * (s.Detail + s.Window)
}
