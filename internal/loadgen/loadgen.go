// Package loadgen generates the key/value workloads the benchmark
// harness drives at ZHT (deliverable: workload generators for the
// evaluation).
//
// The paper's micro-benchmark uses uniformly random 15-byte keys and
// 132-byte values in an insert→lookup→remove sequence (§IV.A);
// FusionFS-style metadata traffic instead concentrates appends on hot
// directory keys. This package provides both access patterns —
// uniform and Zipfian — plus configurable op mixes, so benches can
// explore the space between them.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one operation type in a mix.
type OpKind int

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpLookup
	OpRemove
	OpAppend
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpLookup:
		return "lookup"
	case OpRemove:
		return "remove"
	case OpAppend:
		return "append"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mix is a weighted operation mix; weights need not sum to 1.
type Mix struct {
	Insert, Lookup, Remove, Append float64
}

// pick selects a kind according to the weights.
func (m Mix) pick(rng *rand.Rand) OpKind {
	total := m.Insert + m.Lookup + m.Remove + m.Append
	x := rng.Float64() * total
	switch {
	case x < m.Insert:
		return OpInsert
	case x < m.Insert+m.Lookup:
		return OpLookup
	case x < m.Insert+m.Lookup+m.Remove:
		return OpRemove
	default:
		return OpAppend
	}
}

// KeyDist selects which key an operation touches.
type KeyDist interface {
	// Next returns a key index in [0, n).
	Next(rng *rand.Rand) int
	// N is the keyspace size.
	N() int
}

// Uniform is the paper's random-key distribution.
type Uniform struct{ Keys int }

// Next implements KeyDist.
func (u Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.Keys) }

// N implements KeyDist.
func (u Uniform) N() int { return u.Keys }

// Zipf concentrates traffic on a few hot keys (rank-skewed with
// exponent S > 1), the regime where append's lock-free concurrent
// modification matters most.
type Zipf struct {
	Keys int
	S    float64 // skew exponent, > 1
}

// N implements KeyDist.
func (z Zipf) N() int { return z.Keys }

// Next implements KeyDist. Each call derives its variate from the
// shared rng; the Zipf generator itself is stateless across calls.
func (z Zipf) Next(rng *rand.Rand) int {
	s := z.S
	if s <= 1 {
		s = 1.1
	}
	zg := rand.NewZipf(rng, s, 1, uint64(z.Keys-1))
	if zg == nil {
		return 0
	}
	return int(zg.Uint64())
}

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Generator produces a reproducible operation stream.
type Generator struct {
	mix    Mix
	dist   KeyDist
	rng    *rand.Rand
	prefix string
	value  []byte
}

// Options configures a Generator.
type Options struct {
	Mix  Mix
	Dist KeyDist
	Seed int64
	// KeyPrefix namespaces the generated keys (e.g. per client).
	KeyPrefix string
	// ValueLen is the value size; 0 means the paper's 132 bytes.
	ValueLen int
}

// New creates a generator.
func New(o Options) (*Generator, error) {
	if o.Dist == nil || o.Dist.N() <= 0 {
		return nil, fmt.Errorf("loadgen: key distribution with positive keyspace required")
	}
	if o.Mix.Insert+o.Mix.Lookup+o.Mix.Remove+o.Mix.Append <= 0 {
		return nil, fmt.Errorf("loadgen: empty op mix")
	}
	vl := o.ValueLen
	if vl == 0 {
		vl = 132
	}
	val := make([]byte, vl)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	return &Generator{
		mix:    o.Mix,
		dist:   o.Dist,
		rng:    rand.New(rand.NewSource(o.Seed)),
		prefix: o.KeyPrefix,
		value:  val,
	}, nil
}

// Next returns the next operation in the stream.
func (g *Generator) Next() Op {
	kind := g.mix.pick(g.rng)
	key := fmt.Sprintf("%sk%09d", g.prefix, g.dist.Next(g.rng))
	op := Op{Kind: kind, Key: key}
	if kind == OpInsert || kind == OpAppend {
		op.Value = g.value
	}
	return op
}

// Stream returns n operations.
func (g *Generator) Stream(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// HotKeyFraction reports the fraction of ops in the stream touching
// the top-k most popular keys — a skew diagnostic for tests.
func HotKeyFraction(ops []Op, topK int) float64 {
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.Key]++
	}
	// Select the topK counts.
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	// Partial selection via simple sort (streams are small).
	sortDesc(all)
	if topK > len(all) {
		topK = len(all)
	}
	hot := 0
	for i := 0; i < topK; i++ {
		hot += all[i]
	}
	return float64(hot) / float64(len(ops))
}

func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TheoreticalZipfMass returns the expected probability mass of the
// top-k ranks for exponent s over n keys (used to sanity-check the
// generator in tests).
func TheoreticalZipfMass(n, k int, s float64) float64 {
	var total, top float64
	for r := 1; r <= n; r++ {
		p := 1 / math.Pow(float64(r), s)
		total += p
		if r <= k {
			top += p
		}
	}
	return top / total
}
