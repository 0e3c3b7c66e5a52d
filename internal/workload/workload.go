// Package workload generates reproducible operation streams for exercising
// the replication protocols: generators, Zipf key draws and an open-loop
// pacer. Drivers (cmd/loadgen, bench/) run them.
//
// The generators model the paper's motivating workload — file-system-style
// partial writes (Section 1) — as random in-place range updates mixed with
// reads, all drawn from explicitly seeded PRNG streams so experiments are
// repeatable.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

// OpKind distinguishes generated operations.
type OpKind int

const (
	// OpRead is a quorum read.
	OpRead OpKind = iota
	// OpWrite is a partial write.
	OpWrite
)

// Op is one generated operation.
type Op struct {
	Kind        OpKind
	Coordinator nodeset.ID
	Update      replica.Update // valid for OpWrite
}

// Config parameterizes a generator.
type Config struct {
	// Members is the set of nodes operations may originate from.
	Members nodeset.Set
	// ReadFraction in [0,1] is the probability an operation is a read.
	ReadFraction float64
	// ItemSize is the data item's logical size in bytes; write offsets are
	// drawn within it. Default 256.
	ItemSize int
	// MaxWriteLen caps each partial write's length. Default 16.
	MaxWriteLen int
	// Seed drives the PRNG stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ItemSize <= 0 {
		c.ItemSize = 256
	}
	if c.MaxWriteLen <= 0 {
		c.MaxWriteLen = 16
	}
	if c.MaxWriteLen > c.ItemSize {
		c.MaxWriteLen = c.ItemSize
	}
	return c
}

// Generator produces a deterministic operation stream. It is not safe for
// concurrent use; give each worker its own generator (with its own seed).
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	members []nodeset.ID
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.Members.Empty() {
		return nil, errors.New("workload: empty member set")
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return nil, fmt.Errorf("workload: read fraction %g outside [0,1]", cfg.ReadFraction)
	}
	return &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		members: cfg.Members.IDs(),
	}, nil
}

// Split derives n generators with statistically independent, disjoint
// operation streams from g's configuration. Child seeds are drawn from a
// splitmix64 sequence over the parent seed — the construction that PRNG
// gives for stream splitting — so nearby parent seeds (or worker indexes)
// do not produce overlapping or correlated child streams the way additive
// offsets can. Splitting is deterministic: the same parent configuration
// always yields the same children. The parent's own stream position is
// not consumed.
func (g *Generator) Split(n int) ([]*Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: cannot split into %d generators", n)
	}
	out := make([]*Generator, n)
	state := uint64(g.cfg.Seed)
	for i := range out {
		state += 0x9e3779b97f4a7c15
		cfg := g.cfg
		cfg.Seed = int64(mix64(state))
		child, err := NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = child
	}
	return out, nil
}

// mix64 is the splitmix64 output function.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Next returns the next operation in the stream.
func (g *Generator) Next() Op {
	op := Op{Coordinator: g.members[g.rng.Intn(len(g.members))]}
	if g.rng.Float64() < g.cfg.ReadFraction {
		op.Kind = OpRead
		return op
	}
	op.Kind = OpWrite
	length := 1 + g.rng.Intn(g.cfg.MaxWriteLen)
	offset := g.rng.Intn(g.cfg.ItemSize - length + 1)
	data := make([]byte, length)
	for i := range data {
		data[i] = byte('a' + g.rng.Intn(26))
	}
	op.Update = replica.Update{Offset: offset, Data: data}
	return op
}
