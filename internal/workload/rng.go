package workload

import "math/rand"

// generator is the runner's draw stream: math/rand's additive lagged
// Fibonacci generator (Mitchell and Reeds), run in place so a draw is a
// few field updates instead of two interface calls, and so a checkpoint
// copies it by assignment. Its outputs obey y[n] = y[n-607] + y[n-273]
// (mod 2^64), and Float64, Int63n and Intn are rand.Rand's methods over
// them, so a runner's draws are those of rand.New(rand.NewSource(seed)).
type generator struct {
	// vec holds the last rngLen outputs, y[k] at k mod rngLen.
	vec [rngLen]uint64
	// next is the slot of the output being drawn, which holds y[n-607];
	// tap is the slot of y[n-273].
	next, tap int
}

const (
	rngLen = 607
	rngLag = 273
)

// newGenerator returns the stream rand.NewSource(seed) draws. Its first
// rngLen outputs come from that source; the recurrence, solved backwards
// (y[n-607] = y[n] - y[n-273]), gives the rngLen outputs before them, the
// window the generator starts from. Only the source's public Uint64 is
// read, so its seeding tables need no copy here.
func newGenerator(seed int64) generator {
	src := rand.NewSource(seed).(rand.Source64)
	// y[k+rngLen-1] is output k, for k from 1-rngLen to rngLen.
	var y [2 * rngLen]uint64
	for k := 1; k <= rngLen; k++ {
		y[k+rngLen-1] = src.Uint64()
	}
	// Descending, y[n-273] is a draw or was solved at n+334.
	for n := rngLen; n >= 1; n-- {
		y[n-1] = y[n+rngLen-1] - y[n+rngLen-1-rngLag]
	}
	g := generator{next: 1, tap: 1 - rngLag + rngLen}
	for k := 1 - rngLen; k <= 0; k++ {
		g.vec[(k+rngLen)%rngLen] = y[k+rngLen-1]
	}
	return g
}

// Uint64 draws the next output.
func (g *generator) Uint64() uint64 {
	x := g.vec[g.next] + g.vec[g.tap]
	g.vec[g.next] = x
	if g.next++; g.next == rngLen {
		g.next = 0
	}
	if g.tap++; g.tap == rngLen {
		g.tap = 0
	}
	return x
}

// Int63 is rand.Rand.Int63: the output's low 63 bits.
func (g *generator) Int63() int64 { return int64(g.Uint64() & (1<<63 - 1)) }

// Float64 is rand.Rand.Float64, which redraws the one value that rounds
// to 1.
func (g *generator) Float64() float64 {
	for {
		if f := float64(g.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n: a mask for a power of two, otherwise
// rejection of the top partial range and a remainder.
func (g *generator) Int63n(n int64) int64 {
	if n <= 0 {
		panic("workload: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return g.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := g.Int63()
	for v > max {
		v = g.Int63()
	}
	return v % n
}

// Intn is rand.Rand.Intn: Int31n below 2^31-1, Int63n above.
func (g *generator) Intn(n int) int {
	if n <= 0 {
		panic("workload: invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(g.Int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(g.int31() & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := g.int31()
	for v > max {
		v = g.int31()
	}
	return int(v % m)
}

// int31 is rand.Rand.Int31: the top 31 of Int63's bits.
func (g *generator) int31() int32 { return int32(g.Int63() >> 32) }
