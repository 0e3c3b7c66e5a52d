// Benchmark harness: every table and figure of the paper's evaluation maps
// to a benchmark here (see DESIGN.md's per-experiment index). Benchmarks
// report the reproduced quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's numbers alongside the implementation's costs.
//
//	BenchmarkTable1Static / BenchmarkTable1Dynamic   — Table 1 (E1, E2)
//	BenchmarkFigure1Grid                             — Figure 1/2 structures (E3)
//	BenchmarkFigure3Chain                            — Figure 3 chain solve (E4)
//	BenchmarkQuorumMessages*                         — Section 1 quorum costs (E5)
//	BenchmarkSimAvailability*                        — site-model simulation (E6)
//	BenchmarkPartialWrite* / BenchmarkRead*          — protocol operation costs (E7)
//	BenchmarkVotingComparison                        — Section 2 voting contrast (E8)
//	BenchmarkSafetyThreshold                         — Section 4.1 extension (E9)
//	BenchmarkEpochCheck*                             — Section 4.3 epoch checking
package coterie

import (
	"context"
	"fmt"
	"testing"
	"time"

	ic "coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/sim"
)

// replicaStateReplySample is a representative wire payload.
var replicaStateReplySample = replica.StateReply{
	Node: 3, Version: 41, Desired: 42, Stale: true,
	Epoch: nodeset.Range(0, 9), EpochNum: 7,
	Good: nodeset.New(0, 4, 8), GoodVer: 41,
}

// --- E1: Table 1, static column -------------------------------------------

func BenchmarkTable1Static(b *testing.B) {
	p := 0.95
	for _, n := range []int{9, 12, 15, 16, 20, 24, 30} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var u float64
			for i := 0; i < b.N; i++ {
				_, u = markov.BestStaticGrid(n, p, true)
			}
			b.ReportMetric(u*1e6, "unavail(1e-6)")
		})
	}
}

// --- E2: Table 1, dynamic column -------------------------------------------

func BenchmarkTable1Dynamic(b *testing.B) {
	for _, n := range []int{9, 12, 15, 16, 20, 24, 30} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			model := markov.DynamicGridModel{N: n, Lambda: 1, Mu: 19}
			var u float64
			for i := 0; i < b.N; i++ {
				var err error
				u, err = model.Unavailability()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(u, "unavailability")
		})
	}
}

// --- E3: Figures 1 and 2 — grid structure and quorum construction ----------

func BenchmarkFigure1Grid(b *testing.B) {
	for _, n := range []int{3, 14, 100, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			V := nodeset.Range(0, nodeset.ID(n))
			g := ic.Grid{}
			var size int
			for i := 0; i < b.N; i++ {
				q, ok := g.WriteQuorum(V, V, i)
				if !ok {
					b.Fatal("no quorum")
				}
				size = q.Len()
			}
			b.ReportMetric(float64(size), "write-quorum-size")
		})
	}
}

// --- E4: Figure 3 — the dynamic-grid Markov chain ---------------------------

func BenchmarkFigure3Chain(b *testing.B) {
	for _, n := range []int{9, 30, 100} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			model := markov.DynamicGridModel{N: n, Lambda: 1, Mu: 19}
			for i := 0; i < b.N; i++ {
				c, err := model.Chain()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Stationary(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(model.States()), "states")
		})
	}
}

// --- E5: Section 1 — quorum sizes and messages per operation ----------------

func benchCluster(b *testing.B, n int, rule Rule) *Cluster {
	b.Helper()
	cluster, err := NewCluster(n, "bench", make([]byte, 64), Options{Rule: rule})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	return cluster
}

func benchQuorumMessages(b *testing.B, rule Rule, write bool) {
	cluster := benchCluster(b, 25, rule)
	ctx := context.Background()
	// Warm up so replicas settle, then measure per-op message cost.
	if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("warm")}); err != nil {
		b.Fatal(err)
	}
	waitQuiescent(cluster, 25)
	cluster.Net.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := cluster.Coordinator(NodeID(i % 25))
		if write {
			if _, err := co.Write(ctx, Update{Offset: i % 64, Data: []byte{byte(i)}}); err != nil {
				b.Fatal(err)
			}
			// Hold the cluster at steady state: without pacing, the
			// asynchronous propagation backlog grows without bound under
			// saturation and per-op cost degrades unboundedly. The
			// quiesce runs off the timer; its messages still count toward
			// msgs/op (they are part of each write's true cost).
			if i%16 == 15 {
				b.StopTimer()
				waitQuiescent(cluster, 25)
				b.StartTimer()
			}
		} else {
			if _, _, err := co.Read(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	s := cluster.Net.Stats()
	b.ReportMetric(float64(s.Messages)/float64(b.N), "msgs/op")
}

func waitQuiescent(cluster *Cluster, n int) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		stale := false
		for id := NodeID(0); id < NodeID(n); id++ {
			if cluster.Replica(id).State().Stale {
				stale = true
				break
			}
		}
		if !stale {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func BenchmarkQuorumMessagesGridWrite(b *testing.B)     { benchQuorumMessages(b, GridRule(), true) }
func BenchmarkQuorumMessagesGridRead(b *testing.B)      { benchQuorumMessages(b, GridRule(), false) }
func BenchmarkQuorumMessagesMajorityWrite(b *testing.B) { benchQuorumMessages(b, MajorityRule(), true) }
func BenchmarkQuorumMessagesMajorityRead(b *testing.B)  { benchQuorumMessages(b, MajorityRule(), false) }
func BenchmarkQuorumMessagesHQCWrite(b *testing.B) {
	benchQuorumMessages(b, HierarchicalRule(), true)
}

// --- E6: site-model simulation (validation + ablation) ----------------------

func BenchmarkSimAvailability(b *testing.B) {
	cases := []struct {
		name  string
		model sim.Model
		rule  Rule
	}{
		{"paper-model", sim.ModelPaper, nil},
		{"protocol-grid", sim.ModelProtocol, GridRule()},
		{"protocol-grid-strict", sim.ModelProtocol, StrictGridRule()},
		{"protocol-majority", sim.ModelProtocol, MajorityRule()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					N: 9, Lambda: 1, Mu: 3, Horizon: 50_000,
					Model: c.model, Rule: c.rule, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				frac = res.WriteUnavailFrac
			}
			b.ReportMetric(frac, "unavailability")
		})
	}
}

// --- E7: protocol operations (partial writes, reads, propagation) -----------

func BenchmarkPartialWrite(b *testing.B) {
	for _, n := range []int{4, 9, 25} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cluster := benchCluster(b, n, GridRule())
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Coordinator(NodeID(i%n)).Write(ctx, Update{Offset: i % 64, Data: []byte{1}}); err != nil {
					b.Fatal(err)
				}
				if i%16 == 15 { // keep propagation from backlogging (see benchQuorumMessages)
					b.StopTimer()
					waitQuiescent(cluster, n)
					b.StartTimer()
				}
			}
		})
	}
}

func BenchmarkRead(b *testing.B) {
	for _, n := range []int{4, 9, 25} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cluster := benchCluster(b, n, GridRule())
			ctx := context.Background()
			if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("seed")}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cluster.Coordinator(NodeID(i % n)).Read(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPropagationCatchUp measures how long a stale replica takes to
// converge after rejoining, as a function of missed updates.
func BenchmarkPropagationCatchUp(b *testing.B) {
	for _, missed := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("missed=%d", missed), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cluster, err := NewCluster(4, "bench", make([]byte, 64), Options{
					Replica: ReplicaConfig{PropagationRetry: time.Millisecond},
				})
				if err != nil {
					b.Fatal(err)
				}
				cluster.Crash(3)
				if _, err := cluster.CheckEpoch(ctx); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < missed; k++ {
					if _, err := cluster.Coordinator(0).Write(ctx, Update{Offset: k % 64, Data: []byte{byte(k)}}); err != nil {
						b.Fatal(err)
					}
				}
				cluster.Restart(3)
				b.StartTimer()
				if _, err := cluster.CheckEpoch(ctx); err != nil {
					b.Fatal(err)
				}
				for {
					st := cluster.Replica(3).State()
					if !st.Stale && st.Version == uint64(missed) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				b.StopTimer()
				cluster.Close()
			}
		})
	}
}

// --- E8: Section 2 — dynamic voting comparison ------------------------------

func BenchmarkVotingComparison(b *testing.B) {
	for _, n := range []int{9, 15} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var grid, voting float64
			for i := 0; i < b.N; i++ {
				var err error
				grid, err = markov.DynamicGridModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
				if err != nil {
					b.Fatal(err)
				}
				voting, err = markov.DynamicVotingModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(grid, "grid-unavail")
			b.ReportMetric(voting, "voting-unavail")
		})
	}
}

// --- E9: Section 4.1 — safety-threshold extension ---------------------------

func BenchmarkSafetyThreshold(b *testing.B) {
	for _, threshold := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			cluster, err := NewCluster(9, "bench", make([]byte, 64), Options{SafetyThreshold: threshold})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Coordinator(NodeID(i%9)).Write(ctx, Update{Offset: i % 64, Data: []byte{1}}); err != nil {
					b.Fatal(err)
				}
				if i%16 == 15 {
					b.StopTimer()
					waitQuiescent(cluster, 9)
					b.StartTimer()
				}
			}
		})
	}
}

// --- Grouped epoch management (Section 2) ------------------------------------

func BenchmarkGroupedEpochCheck(b *testing.B) {
	for _, items := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			names := make([]string, items)
			for i := range names {
				names[i] = fmt.Sprintf("item-%d", i)
			}
			g, err := NewGroup(9, names, nil, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			ctx := context.Background()
			g.Net.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.CheckEpochs(ctx, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(g.Net.Stats().Messages)/float64(b.N), "msgs/sweep")
		})
	}
}

// --- Wire codec ---------------------------------------------------------------

func BenchmarkWireCodec(b *testing.B) {
	sample, err := MarshalMessage(wireSampleMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MarshalMessage(wireSampleMessage()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(sample)), "bytes")
	})
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalMessage(sample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPartialWriteOverCodec(b *testing.B) {
	opts := Options{Transport: []TransportOption{WithWireCodec()}}
	cluster, err := NewCluster(9, "bench", make([]byte, 64), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Coordinator(NodeID(i%9)).Write(ctx, Update{Offset: i % 64, Data: []byte{1}}); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			b.StopTimer()
			waitQuiescent(cluster, 9)
			b.StartTimer()
		}
	}
}

// --- Amnesia recovery ----------------------------------------------------------

func BenchmarkAmnesiaRecovery(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, err := NewCluster(9, "bench", make([]byte, 256), Options{
			Replica: ReplicaConfig{PropagationRetry: time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("state")}); err != nil {
			b.Fatal(err)
		}
		cluster.CrashWithAmnesia(4)
		cluster.Restart(4)
		b.StartTimer()
		if _, err := cluster.CheckEpoch(ctx); err != nil {
			b.Fatal(err)
		}
		for {
			st := cluster.Replica(4).State()
			if !st.Stale && !st.Recovering && st.Version == 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		cluster.Close()
	}
}

// --- Epoch checking ----------------------------------------------------------

func BenchmarkEpochCheckNoChange(b *testing.B) {
	cluster := benchCluster(b, 9, GridRule())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.CheckEpoch(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochCheckWithChange(b *testing.B) {
	cluster := benchCluster(b, 9, GridRule())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate crashing and restoring one node so every check changes
		// the epoch.
		if i%2 == 0 {
			cluster.Crash(4)
		} else {
			cluster.Restart(4)
		}
		if _, err := cluster.CheckEpoch(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// wireSampleMessage is a representative protocol message (a phase-1 state
// reply with epoch and good lists) for codec benchmarks.
func wireSampleMessage() any {
	return replicaStateReplySample
}
