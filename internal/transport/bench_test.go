package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"coterie/internal/nodeset"
)

// BenchmarkMulticastFunc measures quorum-shaped fan-outs on a zero-latency
// network: 1 target, 5 targets (a typical quorum), and 25 targets (a full
// broadcast at the largest Table 1 scale with a square grid).
func BenchmarkMulticastFunc(b *testing.B) {
	const nodes = 25
	n := NewNetwork()
	for id := nodeset.ID(0); id < nodes; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			return req, nil
		})
	}
	ctx := context.Background()
	for _, targets := range []int{1, 5, 25} {
		set := nodeset.Range(0, nodeset.ID(targets))
		b.Run(fmt.Sprintf("targets=%d", targets), func(b *testing.B) {
			b.ReportAllocs()
			count := 0
			for i := 0; i < b.N; i++ {
				n.MulticastFunc(ctx, 0, set, "ping", func(to nodeset.ID, r Result) { count++ })
			}
			if count != b.N*targets {
				b.Fatalf("%d callbacks, want %d", count, b.N*targets)
			}
		})
	}
}

// BenchmarkCallParallel measures the point-to-point path under concurrent
// senders — the case the lock-free endpoint registry, per-endpoint load
// counters and per-endpoint RNG streams exist for.
func BenchmarkCallParallel(b *testing.B) {
	const nodes = 16
	n := NewNetwork()
	for id := nodeset.ID(0); id < nodes; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			return req, nil
		})
	}
	ctx := context.Background()
	b.ReportAllocs()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		lane := nodeset.ID(next.Add(1) % (nodes / 2))
		from, to := 2*lane, 2*lane+1
		for pb.Next() {
			if _, err := n.Call(ctx, from, to, "ping"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
