package workload

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
)

type streamSink struct{ insts []isa.Inst }

func (r *streamSink) Emit(in *isa.Inst)      { r.insts = append(r.insts, *in) }
func (r *streamSink) EmitBatch(b []isa.Inst) { r.insts = append(r.insts, b...) }

func newRecordedMachine(t *testing.T, scheme instrument.Scheme) (*core.Machine, *streamSink) {
	t.Helper()
	m, err := core.New(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	rec := &streamSink{}
	m.SetSink(rec)
	return m, rec
}

// TestRunnerPiecewiseMatchesRun: driving a Runner in several RunTo slices
// must produce the byte-identical instruction stream of a one-shot Run —
// the property every warmup split and checkpoint boundary relies on.
func TestRunnerPiecewiseMatchesRun(t *testing.T) {
	p, _ := ByName("mcf")
	p = p.Clone()
	p.Instructions = 60_000
	total := p.Instructions

	mA, recA := newRecordedMachine(t, instrument.AOS)
	if err := p.Run(mA, 7); err != nil {
		t.Fatal(err)
	}

	mC, recC := newRecordedMachine(t, instrument.AOS)
	rc, err := NewRunner(p, mC, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, until := range []uint64{13_000, 13_001, 40_000, total} {
		if err := rc.RunTo(context.Background(), until, total); err != nil {
			t.Fatal(err)
		}
	}
	mC.Flush()

	if len(recA.insts) == 0 {
		t.Fatal("one-shot run produced no instructions")
	}
	if !reflect.DeepEqual(recA.insts, recC.insts) {
		t.Fatalf("sliced RunTo diverged from one-shot Run: %d vs %d insts", len(recC.insts), len(recA.insts))
	}
	if rc.Produced() < total {
		t.Fatalf("sliced runner stopped at %d, want >= %d", rc.Produced(), total)
	}
}

// BenchmarkRunTo times the functional path alone: a gcc/AOS runner after
// set-up produces b.N program instructions into a machine whose sink
// discards them, batched as a cell's is, so an op is one program
// instruction and its draws, heap work and instrumentation.
func BenchmarkRunTo(b *testing.B) {
	p, _ := ByName("gcc")
	m, err := core.New(core.Config{Scheme: instrument.AOS})
	if err != nil {
		b.Fatal(err)
	}
	m.SetSink(isa.NullSink{})
	m.SetBatch(core.EmitBatchSize)
	r, err := NewRunner(p, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	until := r.Produced() + uint64(b.N)
	if err := r.RunTo(context.Background(), until, until); err != nil {
		b.Fatal(err)
	}
}

// TestRunnerStateResumeDeterminism: checkpoint a (machine, runner) pair at an
// arbitrary boundary, resume both into fresh objects and then again in place,
// and require the continuation's instruction stream and final counts to be
// byte-identical to the original running straight through.
func TestRunnerStateResumeDeterminism(t *testing.T) {
	for _, scheme := range []instrument.Scheme{instrument.AOS, instrument.Watchdog, instrument.MTE} {
		p, _ := ByName("hmmer")
		const half, total = 30_000, 60_000

		m, rec := newRecordedMachine(t, scheme)
		r, err := NewRunner(p, m, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunTo(context.Background(), half, total); err != nil {
			t.Fatal(err)
		}
		msnap := m.Snapshot()
		rsnap := r.State()
		prefix := len(rec.insts)
		if err := r.RunTo(context.Background(), total, total); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		wantTail := rec.insts[prefix:]
		wantCounts := m.Counts()

		// Trial 0 builds a runner on a fresh machine; trial 1 restores
		// both in place, over the buffers trial 0's continuation grew.
		m2, rec2 := newRecordedMachine(t, scheme)
		var r2 *Runner
		for trial := 0; trial < 2; trial++ {
			rec2.insts = rec2.insts[:0]
			if err := m2.Restore(msnap); err != nil {
				t.Fatal(err)
			}
			if trial == 0 {
				if r2, err = NewRunnerFromState(p, m2, rsnap); err != nil {
					t.Fatal(err)
				}
			} else if err := r2.Restore(rsnap); err != nil {
				t.Fatal(err)
			}
			if r2.Produced() != rsnap.Produced() {
				t.Fatalf("%v: resumed runner at %d, checkpoint at %d", scheme, r2.Produced(), rsnap.Produced())
			}
			if err := r2.RunTo(context.Background(), total, total); err != nil {
				t.Fatal(err)
			}
			m2.Flush()
			if !reflect.DeepEqual(rec2.insts, wantTail) {
				t.Fatalf("%v trial %d: resumed stream diverged (%d vs %d insts)",
					scheme, trial, len(rec2.insts), len(wantTail))
			}
			got := m2.Counts()
			// The resumed machine's counts continue from the checkpoint, so
			// they must equal the straight-through totals exactly.
			if !reflect.DeepEqual(got, wantCounts) {
				t.Fatalf("%v trial %d: counts diverged:\n got %+v\nwant %+v", scheme, trial, got, wantCounts)
			}
		}
	}
}

// TestRunnerStateWrongProfile: resuming under a different profile must fail.
func TestRunnerStateWrongProfile(t *testing.T) {
	p, _ := ByName("mcf")
	m, _ := newRecordedMachine(t, instrument.Baseline)
	r, err := NewRunner(p, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := ByName("gobmk")
	if _, err := NewRunnerFromState(other, m, r.State()); err == nil {
		t.Fatal("NewRunnerFromState accepted a state from a different profile")
	}
}

// The draws the runner makes, each a kind of call on the generator and on
// rand.Rand.
const (
	callFloat64 = iota
	callInt63n
	callIntn
	numCalls
)

// drawer is what the runner calls on its generator, and what rand.Rand
// has too.
type drawer interface {
	Float64() float64
	Int63n(n int64) int64
	Intn(n int) int
}

// draw makes one call on g and returns its result as a bit pattern.
func draw(g drawer, kind int, n int64) uint64 {
	switch kind {
	case callFloat64:
		return math.Float64bits(g.Float64())
	case callInt63n:
		return uint64(g.Int63n(n))
	default:
		return uint64(g.Intn(int(n)))
	}
}

// drawMix is a call cycle that takes each of rand.Rand's paths: Int63n
// with a power of two (a mask), a non-power of two (a rejection bound and
// a remainder) and n > 2^62, where about every other draw is rejected;
// Intn below 2^31-1 (Int31n, masked and not) and above it (Int63n).
var drawMix = []struct {
	kind int
	n    int64
}{
	{callFloat64, 0},
	{callInt63n, 1 << 20},
	{callFloat64, 0},
	{callInt63n, 1000},
	{callInt63n, 1<<62 + 1},
	{callIntn, 48},
	{callFloat64, 0},
	{callIntn, 1 << 4},
	{callIntn, 1<<40 + 12345},
	{callIntn, 1<<31 - 1},
	{callInt63n, 1<<63 - 1},
}

// TestRunnerDrawsMatchMathRand: the runner's generator is math/rand's
// stream, call for call, for every draw the runner makes; and a state
// restored in place, into a generator that drew elsewhere, continues the
// same stream.
func TestRunnerDrawsMatchMathRand(t *testing.T) {
	const calls = 200_000
	for _, seed := range []int64{0, 1, 2, 42, -5, 2147483647, 1 << 40} {
		g, want := newGenerator(seed), rand.New(rand.NewSource(seed))
		var mid generator
		tail := make([]uint64, 0, calls/2)
		for i := 0; i < calls; i++ {
			if i == calls/2 {
				mid = g
			}
			c := drawMix[i%len(drawMix)]
			got, exp := draw(&g, c.kind, c.n), draw(want, c.kind, c.n)
			if got != exp {
				t.Fatalf("seed %d call %d (kind %d, n %d): %#x, math/rand %#x", seed, i, c.kind, c.n, got, exp)
			}
			if i >= calls/2 {
				tail = append(tail, got)
			}
		}

		// Restore in place, over a generator that drew elsewhere, as a
		// runner's has by the time it restores its next checkpoint.
		g = newGenerator(seed + 1)
		for i := 0; i < 999; i++ {
			g.Uint64()
		}
		g = mid
		for i := calls / 2; i < calls; i++ {
			c := drawMix[i%len(drawMix)]
			if got := draw(&g, c.kind, c.n); got != tail[i-calls/2] {
				t.Fatalf("seed %d call %d after restore: %#x, want %#x", seed, i, got, tail[i-calls/2])
			}
		}
	}
}

// FuzzDraws: for any seed and call script, the generator's results equal
// math/rand's, and so do the raw draws after the script. Each script byte
// picks a call (byte%numCalls) and how many of the next bytes, up to 8,
// hold its argument n, little-endian, kept positive.
func FuzzDraws(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 0})
	f.Add(int64(1), []byte{1 | 2<<2, 0xe8, 0x03, 2 | 1<<2, 48, 0})
	f.Add(int64(-5), []byte{1 | 8<<2, 1, 0, 0, 0, 0, 0, 0, 0x40, 2 | 5<<2, 0x39, 0x30, 0, 0, 1})
	f.Add(int64(1<<40), []byte{2 | 4<<2, 0xff, 0xff, 0xff, 0x7f, 1 | 3<<2, 0, 0, 0x10})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		g, want := newGenerator(seed), rand.New(rand.NewSource(seed))
		for i := 0; len(script) > 0; i++ {
			op := script[0]
			k := min(int(op>>2)%9, len(script)-1)
			var n int64
			for j := k; j >= 1; j-- {
				n = n<<8 | int64(script[j])
			}
			script = script[k+1:]
			if n &= 1<<63 - 1; n == 0 {
				n = 1
			}
			kind := int(op) % numCalls
			if got, exp := draw(&g, kind, n), draw(want, kind, n); got != exp {
				t.Fatalf("call %d (kind %d, n %d): %#x, math/rand %#x", i, kind, n, got, exp)
			}
		}
		for i := 0; i < rngLen; i++ {
			if got, exp := g.Int63(), want.Int63(); got != exp {
				t.Fatalf("draw %d after the script: %#x, math/rand %#x", i, got, exp)
			}
		}
	})
}

// TestRunnerStateComplete is the reflection guard. Every Runner field is
// classified as checkpointed (in RunnerState, possibly under a different
// representation) or derived/operational, and every runnerState field an
// assignment would share is on the deep-copy list that clone copies.
func TestRunnerStateComplete(t *testing.T) {
	checkpointed := map[string]bool{
		// p is captured as the profile name.
		"runnerState": true, "p": true,
	}
	operational := map[string]bool{
		// m is runtime wiring; the rest are draw-free derivations
		// recomputed by deriveParams on every construction path.
		"m": true, "chainFrac": true, "memFrac": true, "storeShare": true,
		"burstLen": true, "stride": true, "callGap": true, "allocGap": true,
	}
	typ := reflect.TypeOf(Runner{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("workload.Runner field %q is not classified as checkpointed or derived; update State/NewRunnerFromState and this test", name)
		}
	}
	deepCopied := map[string]bool{"chunks": true, "bias": true}
	st := reflect.TypeOf(runnerState{})
	// The generator is loop state: a value that State and Restore copy
	// by assignment.
	if f, ok := st.FieldByName("rng"); !ok || f.Type != reflect.TypeOf(generator{}) {
		t.Error("workload.runnerState does not hold the generator by value; State and Restore would not capture it")
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("workload.runnerState field %q: shares storage %v, on the deep-copy list %v; update clone and this test",
				f.Name, shares, deepCopied[f.Name])
		}
	}
}

// sharesStorage reports whether assigning a value of type t leaves the
// copy sharing storage with the original.
func sharesStorage(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return sharesStorage(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if sharesStorage(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
