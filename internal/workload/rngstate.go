package workload

import (
	"math/rand"
	"reflect"
	"unsafe"
)

// countingSource wraps the runner's PRNG source and counts draws, so a
// checkpoint can record "seed + N draws" — enough to reconstruct the exact
// generator state on any restore path. The wrapper is draw-transparent:
// rand.Rand sees a Source64 and pulls the same values it would from the
// bare source, so streams are bit-identical to pre-checkpoint code.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(s int64) {
	c.src.Seed(s)
	c.draws = 0
}

// rngVecLen is math/rand's additive-generator vector length (stable since
// Go 1.0; pinned by TestRNGCaptureFastPath against the running toolchain).
const rngVecLen = 607

// rngState is a checkpoint of the PRNG: always the draw count (sufficient
// to re-derive the state from the seed by burning draws), plus — when the
// runtime's generator has the expected layout — a direct copy of the
// additive generator's internals, making restore O(1) instead of O(draws).
type rngState struct {
	draws uint64
	fast  bool
	tap   int
	feed  int
	vec   [rngVecLen]int64
}

// rngLayout locates math/rand's unexported rngSource{tap, feed int; vec
// [607]int64} fields by index, found once by name; ok is false when the
// runtime's generator does not have that layout, and captures then record
// only the draw count.
var rngLayout = findRNGLayout(reflect.TypeOf(rand.NewSource(0)))

type rngFields struct {
	tap, feed, vec int
	ok             bool
}

func findRNGLayout(t reflect.Type) rngFields {
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return rngFields{}
	}
	e := t.Elem()
	tap, okT := e.FieldByName("tap")
	feed, okF := e.FieldByName("feed")
	vec, okV := e.FieldByName("vec")
	if !okT || !okF || !okV ||
		tap.Type.Kind() != reflect.Int || feed.Type.Kind() != reflect.Int ||
		vec.Type.Kind() != reflect.Array || vec.Type.Len() != rngVecLen ||
		vec.Type.Elem().Kind() != reflect.Int64 {
		return rngFields{}
	}
	return rngFields{tap: tap.Index[0], feed: feed.Index[0], vec: vec.Index[0], ok: true}
}

// captureRNG snapshots the source state. The fast path reads the
// generator's unexported fields via reflection — reads of unexported
// fields are legal, only Interface() is not.
func captureRNG(c *countingSource) rngState {
	st := rngState{draws: c.draws}
	if !rngLayout.ok {
		return st
	}
	e := reflect.ValueOf(c.src).Elem()
	st.fast = true
	st.tap = int(e.Field(rngLayout.tap).Int())
	st.feed = int(e.Field(rngLayout.feed).Int())
	vec := e.Field(rngLayout.vec)
	for i := range st.vec {
		st.vec[i] = vec.Index(i).Int()
	}
	return st
}

// restore rewinds the source, in place, to a capture taken from a source
// seeded with seed. With a fast capture it writes the generator internals
// directly (via unsafe, since the fields are unexported); otherwise it
// reseeds and replays the recorded number of draws — exact but O(draws).
func (c *countingSource) restore(seed int64, st rngState) {
	if st.fast && rngLayout.ok {
		e := reflect.ValueOf(c.src).Elem()
		*(*int)(unsafe.Pointer(e.Field(rngLayout.tap).UnsafeAddr())) = st.tap
		*(*int)(unsafe.Pointer(e.Field(rngLayout.feed).UnsafeAddr())) = st.feed
		*(*[rngVecLen]int64)(unsafe.Pointer(e.Field(rngLayout.vec).UnsafeAddr())) = st.vec
	} else {
		c.src.Seed(seed)
		for i := uint64(0); i < st.draws; i++ {
			// Int63 and Uint64 advance the additive generator identically
			// (Int63 is Uint64 masked), so burning with either replays the
			// stream position exactly.
			c.src.Uint64()
		}
	}
	c.draws = st.draws
}
