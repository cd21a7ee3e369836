// Package workload generates the YCSB-style workloads of the paper's
// Table 1. Clients issue PUTs and ROTs in a closed loop; the knobs are:
//
//   - w, the write/read ratio #PUT/(#PUT + #individual reads), where a ROT
//     over p keys counts as p reads (default 0.05);
//   - p, the number of partitions a ROT spans, one key per partition
//     (default 4);
//   - b, the value size in bytes (default 8);
//   - z, the zipfian skew of key popularity within a partition
//     (default 0.99).
//
// Keys are pre-bucketed per partition so a ROT can draw exactly one key
// from each of p uniformly chosen partitions, as in §5.2.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ring"
)

// Config captures one column of Table 1.
type Config struct {
	// WriteRatio is w = #PUT/(#PUT + #reads); a p-key ROT counts p reads.
	WriteRatio float64
	// RotSize is p, the number of partitions a ROT spans.
	RotSize int
	// ValueSize is b, the constant item size in bytes.
	ValueSize int
	// Zipf is z, the zipfian parameter (0 = uniform).
	Zipf float64
	// KeysPerPartition sizes each partition's key population.
	KeysPerPartition int
	// Partitions is the cluster partition count.
	Partitions int
	// Tenants spreads the workload's client population over this many
	// admission tenants: client i runs as tenant i mod Tenants (see
	// TenantOf). 0 means one tenant, tenant 0.
	Tenants int
}

// TenantOf maps a client index onto one of c.Tenants tenants (round
// robin); with Tenants ≤ 0 every client is tenant 0.
func (c Config) TenantOf(client int) uint16 {
	if c.Tenants <= 0 {
		return 0
	}
	return uint16(client % c.Tenants)
}

// Default returns the paper's default workload: w=0.05, p=4, b=8, z=0.99
// (Table 1, bold values), with a configurable key population.
func Default(partitions, keysPerPartition int) Config {
	return Config{
		WriteRatio:       0.05,
		RotSize:          4,
		ValueSize:        8,
		Zipf:             0.99,
		KeysPerPartition: keysPerPartition,
		Partitions:       partitions,
	}
}

// PutProbability converts w into the per-operation probability q of
// issuing a PUT, accounting for a ROT counting as p reads:
// w = q / (q + (1-q)·p)  ⇒  q = w·p / (1 - w + w·p).
func (c Config) PutProbability() float64 {
	w, p := c.WriteRatio, float64(c.RotSize)
	if w <= 0 {
		return 0
	}
	if w >= 1 {
		return 1
	}
	return w * p / (1 - w + w*p)
}

// KeySpace holds per-partition key pools: Keys[p][i] is the i-th key of
// partition p, and ring.Owner(Keys[p][i]) == p.
type KeySpace struct {
	Keys [][]string
}

// BuildKeySpace enumerates deterministic keys and buckets them by owning
// partition until every partition holds c.KeysPerPartition keys.
func BuildKeySpace(c Config, r ring.Ring) *KeySpace {
	ks := &KeySpace{Keys: make([][]string, c.Partitions)}
	for p := range ks.Keys {
		ks.Keys[p] = make([]string, 0, c.KeysPerPartition)
	}
	remaining := c.Partitions
	for i := 0; remaining > 0; i++ {
		key := fmt.Sprintf("key%08x", i)
		p := r.Owner(key)
		if len(ks.Keys[p]) < c.KeysPerPartition {
			ks.Keys[p] = append(ks.Keys[p], key)
			if len(ks.Keys[p]) == c.KeysPerPartition {
				remaining--
			}
		}
	}
	return ks
}

// Zipfian is the YCSB/Gray bounded zipfian generator over [0, n). Unlike
// math/rand's Zipf it supports the sub-1 exponents of Table 1 (z = 0.8,
// 0.99). A zero theta degenerates to the uniform distribution.
type Zipfian struct {
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
}

// NewZipfian prepares a generator over [0, n) with parameter theta ∈ [0,1).
func NewZipfian(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	if theta <= 0 {
		return z
	}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next rank; rank 0 is the most popular.
func (z *Zipfian) Next(r *rand.Rand) uint64 {
	if z.theta <= 0 {
		return uint64(r.Int63n(int64(z.n)))
	}
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// OpKind distinguishes generated operations.
type OpKind uint8

const (
	// OpPut writes one key on one partition.
	OpPut OpKind = iota
	// OpROT reads one key from each of RotSize partitions.
	OpROT
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Keys  []string
	Value []byte
}

// Gen is a per-client operation generator. It is not safe for concurrent
// use; give each closed-loop client its own Gen.
type Gen struct {
	cfg     Config
	ks      *KeySpace
	rng     *rand.Rand
	zipf    *Zipfian
	putProb float64
	value   []byte
	keys    []string
	parts   []int
}

// NewGen returns a generator seeded deterministically per client.
func NewGen(cfg Config, ks *KeySpace, seed int64) *Gen {
	g := &Gen{
		cfg:     cfg,
		ks:      ks,
		rng:     rand.New(rand.NewSource(seed)),
		zipf:    NewZipfian(uint64(cfg.KeysPerPartition), cfg.Zipf),
		putProb: cfg.PutProbability(),
		value:   make([]byte, cfg.ValueSize),
		keys:    make([]string, 0, cfg.RotSize),
		parts:   make([]int, cfg.Partitions),
	}
	g.rng.Read(g.value)
	for i := range g.parts {
		g.parts[i] = i
	}
	return g
}

// Next produces the next closed-loop operation. The returned Op's slices
// are reused by subsequent calls.
func (g *Gen) Next() Op {
	if g.rng.Float64() < g.putProb {
		p := g.rng.Intn(g.cfg.Partitions)
		g.keys = g.keys[:0]
		g.keys = append(g.keys, g.pick(p))
		// Value contents are irrelevant; size matters. Mutate one byte so
		// versions differ.
		g.value[0]++
		return Op{Kind: OpPut, Keys: g.keys, Value: g.value}
	}
	// ROT: RotSize distinct partitions chosen uniformly, one key each.
	n := min(g.cfg.RotSize, g.cfg.Partitions)
	g.keys = g.keys[:0]
	for i := 0; i < n; i++ {
		j := i + g.rng.Intn(g.cfg.Partitions-i)
		g.parts[i], g.parts[j] = g.parts[j], g.parts[i]
		g.keys = append(g.keys, g.pick(g.parts[i]))
	}
	return Op{Kind: OpROT, Keys: g.keys}
}

// pick draws a zipfian-popular key from partition p.
func (g *Gen) pick(p int) string {
	rank := g.zipf.Next(g.rng)
	pool := g.ks.Keys[p]
	if rank >= uint64(len(pool)) {
		rank = uint64(len(pool) - 1)
	}
	return pool[rank]
}
