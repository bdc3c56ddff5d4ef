package aos_test

import (
	"context"
	"testing"

	"aos"
	"aos/internal/experiments"
)

func TestSystemBasicLifecycle(t *testing.T) {
	sys, err := aos.NewSystem(aos.Options{Scheme: aos.AOS})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Signed() {
		t.Error("AOS malloc returned an unsigned pointer")
	}
	if err := sys.StoreU64(p, 0, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.LoadU64(p, 0); err != nil || v != 42 {
		t.Fatalf("LoadU64 = %d, %v", v, err)
	}
	if err := sys.Free(p); err != nil {
		t.Fatal(err)
	}
	r := sys.Finalize()
	if r.Insts == 0 || r.Cycles == 0 {
		t.Errorf("empty result: %+v", r)
	}
	if r.Heap.Allocs != 1 || r.Heap.Frees != 1 {
		t.Errorf("heap stats: %+v", r.Heap)
	}
}

func TestViolationsDetectedThroughPublicAPI(t *testing.T) {
	sys, err := aos.NewSystem(aos.Options{Scheme: aos.AOS})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Malloc(64)
	if err := sys.Load(p, 128, aos.AccessOpts{}); err == nil {
		t.Error("OOB load undetected")
	}
	if err := sys.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(p, 0, aos.AccessOpts{}); err == nil {
		t.Error("UAF undetected")
	}
	if err := sys.Free(p); err == nil {
		t.Error("double free undetected")
	}
	excs := sys.Exceptions()
	if len(excs) != 3 {
		t.Fatalf("exceptions = %d, want 3", len(excs))
	}
	if excs[0].Kind != aos.ExcBoundsCheck || excs[2].Kind != aos.ExcBoundsClear {
		t.Errorf("exception kinds: %v, %v", excs[0].Kind, excs[2].Kind)
	}
}

func TestBaselineDetectsNothing(t *testing.T) {
	sys, err := aos.NewSystem(aos.Options{Scheme: aos.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Malloc(64)
	if err := sys.Load(p, 128, aos.AccessOpts{}); err != nil {
		t.Error("baseline detected an OOB access (it has no mechanism to)")
	}
	if len(sys.Exceptions()) != 0 {
		t.Error("baseline recorded exceptions")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	spec := aos.SPECWorkloads()
	if len(spec) != 16 {
		t.Fatalf("SPEC workloads = %d, want 16", len(spec))
	}
	rw := aos.RealWorldWorkloads()
	if len(rw) != 6 {
		t.Fatalf("real-world workloads = %d, want 6", len(rw))
	}
	for _, w := range spec {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		got, ok := aos.WorkloadByName(w.Name)
		if !ok || got.Name != w.Name {
			t.Errorf("WorkloadByName(%s) failed", w.Name)
		}
	}
	if _, ok := aos.WorkloadByName("nonexistent"); ok {
		t.Error("WorkloadByName accepted garbage")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	w, _ := aos.WorkloadByName("milc")
	opts := aos.Options{Scheme: aos.AOS, Instructions: 50_000, Seed: 7}
	a, err := aos.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aos.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.BoundsAccesses != b.BoundsAccesses {
		t.Errorf("nondeterministic run: %d/%d vs %d/%d", a.Cycles, a.Insts, b.Cycles, b.Insts)
	}
	c, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 50_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles {
		t.Log("different seeds produced identical cycles (possible but unlikely)")
	}
}

func TestRunAllSchemesAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke test")
	}
	for _, w := range aos.SPECWorkloads() {
		for _, s := range aos.Schemes() {
			r, err := aos.Run(w, aos.Options{Scheme: s, Instructions: 20_000})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			if r.Cycles == 0 || r.IPC() <= 0 || r.IPC() > 8 {
				t.Errorf("%s/%v: implausible result cycles=%d ipc=%.2f", w.Name, s, r.Cycles, r.IPC())
			}
			if len(r.Exceptions) != 0 {
				t.Errorf("%s/%v: benign workload raised %d violations", w.Name, s, len(r.Exceptions))
			}
			if s.SignsDataPointers() && r.CheckedOps == 0 {
				t.Errorf("%s/%v: no bounds checks", w.Name, s)
			}
		}
	}
}

func TestSchemeOrderingHoldsOnCheckedHeavyWorkload(t *testing.T) {
	w, _ := aos.WorkloadByName("hmmer")
	cycles := map[aos.Scheme]uint64{}
	for _, s := range []aos.Scheme{aos.Baseline, aos.PA, aos.AOS} {
		r, err := aos.Run(w, aos.Options{Scheme: s, Instructions: 150_000})
		if err != nil {
			t.Fatal(err)
		}
		cycles[s] = r.Cycles
	}
	if cycles[aos.AOS] <= cycles[aos.Baseline] {
		t.Errorf("AOS (%d) not slower than baseline (%d) on hmmer", cycles[aos.AOS], cycles[aos.Baseline])
	}
	if cycles[aos.PA] >= cycles[aos.AOS] {
		t.Errorf("PA (%d) not cheaper than AOS (%d) on hmmer", cycles[aos.PA], cycles[aos.AOS])
	}
}

func TestAblationOptionsChangeBehaviour(t *testing.T) {
	w, _ := aos.WorkloadByName("namd")
	full, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	noL1B, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000, DisableL1B: true})
	if err != nil {
		t.Fatal(err)
	}
	if noL1B.L1B != nil {
		t.Error("DisableL1B still reports L1B stats")
	}
	if full.L1B == nil {
		t.Error("default config missing L1B stats")
	}
	if noL1B.Cycles < full.Cycles {
		t.Errorf("removing the L1-B sped namd up: %d < %d", noL1B.Cycles, full.Cycles)
	}
	noBWB, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000, DisableBWB: true})
	if err != nil {
		t.Fatal(err)
	}
	if noBWB.BWB.Hits+noBWB.BWB.Misses != 0 {
		t.Error("DisableBWB still exercised the BWB")
	}
}

func TestPAAOSAddsOverheadOverAOS(t *testing.T) {
	w, _ := aos.WorkloadByName("omnetpp")
	a, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := aos.Run(w, aos.Options{Scheme: aos.PAAOS, Instructions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Cycles <= a.Cycles {
		t.Errorf("PA+AOS (%d) not above AOS (%d) on call-heavy omnetpp", pa.Cycles, a.Cycles)
	}
}

// TestRunMatchesMatrixCell: aos.Run and the experiment matrix run the same
// simulation cell, so they agree on every number for the same profile,
// scheme, budget and seed — including gcc, whose profile carries a large
// code footprint.
func TestRunMatchesMatrixCell(t *testing.T) {
	for _, name := range []string{"gcc", "milc", "hmmer"} {
		w, _ := aos.WorkloadByName(name)
		r, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		spec := experiments.SimSpec{Benchmark: name, Scheme: "AOS", Instructions: 100_000, Seed: 1}
		m, err := experiments.RunSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != m.Cycles || r.Insts != m.Instructions || r.Traffic.Total() != m.TrafficBytes {
			t.Errorf("%s: aos.Run cycles/insts/traffic %d/%d/%d, matrix cell %d/%d/%d", name,
				r.Cycles, r.Insts, r.Traffic.Total(), m.Cycles, m.Instructions, m.TrafficBytes)
		}
		if r.Heap.Allocs != m.HeapAllocs || r.Heap.Frees != m.HeapFrees || r.Heap.MaxLive != m.HeapMaxLive {
			t.Errorf("%s: aos.Run heap %+v, matrix cell allocs=%d frees=%d maxLive=%d", name,
				r.Heap, m.HeapAllocs, m.HeapFrees, m.HeapMaxLive)
		}
		if r.Counts.Total != r.Insts {
			t.Errorf("%s: Counts cover %d insts, the measured region %d", name, r.Counts.Total, r.Insts)
		}
	}
}
