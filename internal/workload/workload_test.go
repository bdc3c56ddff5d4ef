package workload

import (
	"reflect"
	"testing"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
)

func TestSPECProfilesValidate(t *testing.T) {
	profiles := SPEC()
	if len(profiles) != 16 {
		t.Fatalf("SPEC profiles = %d, want 16", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestTableIINumbersMatchPaper(t *testing.T) {
	// Spot-check the published Table II values carried by the profiles.
	want := map[string][3]uint64{ // allocs, frees, maxLive
		"bzip2":   {29, 25, 10},
		"gcc":     {1846825, 1829255, 81825},
		"mcf":     {8, 8, 6},
		"omnetpp": {21244416, 21244416, 1993737},
		"sphinx3": {14224690, 14024020, 200686},
		"hmmer":   {1474128, 1474128, 1450},
	}
	for name, w := range want {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if p.TableAllocs != w[0] || p.TableFrees != w[1] || p.TableMaxLive != w[2] {
			t.Errorf("%s: table numbers %d/%d/%d, want %d/%d/%d",
				name, p.TableAllocs, p.TableFrees, p.TableMaxLive, w[0], w[1], w[2])
		}
	}
}

func TestRealWorldProfiles(t *testing.T) {
	rw := RealWorld()
	if len(rw) != 6 {
		t.Fatalf("real-world profiles = %d", len(rw))
	}
	apache, ok := ByName("apache")
	if !ok || apache.TableAllocs != 13_360_000 {
		t.Error("apache Table III numbers wrong")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("not-a-benchmark"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

func TestRunProducesRequestedInstructions(t *testing.T) {
	p, _ := ByName("milc")
	prof := *p
	prof.Instructions = 30_000
	m, err := core.New(core.Config{Scheme: instrument.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Run(m, 1); err != nil {
		t.Fatal(err)
	}
	total := m.Counts().Total
	if total < 30_000 {
		t.Errorf("emitted %d instructions, want >= 30000", total)
	}
}

func TestRunDeterminism(t *testing.T) {
	p, _ := ByName("astar")
	prof := *p
	prof.Instructions = 20_000
	counts := func(seed int64) isa.Counts {
		m, err := core.New(core.Config{Scheme: instrument.AOS})
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.Run(m, seed); err != nil {
			t.Fatal(err)
		}
		return m.Counts()
	}
	a, b := counts(3), counts(3)
	if a != b {
		t.Error("same seed produced different instruction streams")
	}
	c := counts(4)
	if a == c {
		t.Log("different seeds produced identical streams (unlikely)")
	}
}

func TestRunNoViolationsOnBenignWorkloads(t *testing.T) {
	for _, p := range SPEC()[:4] {
		prof := *p
		prof.Instructions = 15_000
		m, err := core.New(core.Config{Scheme: instrument.AOS})
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.Run(m, 2); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if n := len(m.Exceptions()); n != 0 {
			t.Errorf("%s: benign workload raised %d exceptions", p.Name, n)
		}
	}
}

func TestAllocScheduleMatchesConsistentRows(t *testing.T) {
	// Rows whose paper numbers are internally consistent must be
	// reproduced exactly at full scale.
	for _, name := range []string{"bzip2", "mcf", "milc", "namd", "gobmk", "hmmer", "h264ref", "lbm", "astar", "sphinx3"} {
		p, _ := ByName(name)
		res := p.AllocSchedule(1, func(bool) {})
		if res.Allocs != p.TableAllocs {
			t.Errorf("%s: allocs %d, want %d", name, res.Allocs, p.TableAllocs)
		}
		if res.Frees != p.TableFrees {
			t.Errorf("%s: frees %d, want %d", name, res.Frees, p.TableFrees)
		}
		if res.MaxLive != p.TableMaxLive {
			t.Errorf("%s: max live %d, want %d", name, res.MaxLive, p.TableMaxLive)
		}
	}
}

func TestAllocScheduleSoplexNote(t *testing.T) {
	// soplex's published triple is not reproducible with paired frees; the
	// profile must carry an explanatory note and still reproduce the alloc
	// and free counts.
	p, _ := ByName("soplex")
	if p.TableNote == "" {
		t.Fatal("soplex missing its table note")
	}
	res := p.AllocSchedule(1, func(bool) {})
	if res.Allocs != p.TableAllocs || res.Frees != p.TableFrees {
		t.Errorf("soplex counts %d/%d, want %d/%d", res.Allocs, res.Frees, p.TableAllocs, p.TableFrees)
	}
}

func TestAllocScheduleScaling(t *testing.T) {
	p, _ := ByName("omnetpp")
	res := p.AllocSchedule(1000, func(bool) {})
	if res.Allocs != p.TableAllocs/1000 {
		t.Errorf("scaled allocs = %d, want %d", res.Allocs, p.TableAllocs/1000)
	}
}

// TestProfileCloneIsDeep guards Clone's shallow-copy-is-deep-copy
// invariant: Profile must hold only value-typed fields. If a slice, map,
// pointer, chan, func or interface field is ever added, this test fails
// until Clone learns to copy it — otherwise concurrent runs over shared
// workload.SPEC() profiles would silently alias mutable state.
func TestProfileCloneIsDeep(t *testing.T) {
	typ := reflect.TypeOf(Profile{})
	var check func(t reflect.Type, path string)
	check = func(ft reflect.Type, path string) {
		switch ft.Kind() {
		case reflect.Slice, reflect.Map, reflect.Ptr, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("Profile field %s has reference kind %v; Clone must deep-copy it", path, ft.Kind())
		case reflect.Struct:
			for i := 0; i < ft.NumField(); i++ {
				check(ft.Field(i).Type, path+"."+ft.Field(i).Name)
			}
		case reflect.Array:
			check(ft.Elem(), path+"[]")
		}
	}
	check(typ, "Profile")

	p, _ := ByName("gcc")
	q := p.Clone()
	q.Instructions = p.Instructions + 1
	q.ChunkSize[0] = p.ChunkSize[0] + 1
	if p.Instructions == q.Instructions || p.ChunkSize[0] == q.ChunkSize[0] {
		t.Error("Clone shares state with the original")
	}
}
