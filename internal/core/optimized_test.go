package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
)

func testEngine(t *testing.T, strategy QuorumStrategy, n int, capacity coterie.LoadFunc) (*StrategyEngine, *coterie.Layout) {
	t.Helper()
	opts := Options{
		Strategy:         strategy,
		Obs:              obs.New(),
		Capacity:         capacity,
		OptimizeInterval: time.Hour, // never self-trigger during the test
	}.withDefaults()
	epoch := nodeset.Range(0, nodeset.ID(n))
	lay := coterie.Compile(opts.Rule, epoch)
	return NewStrategyEngine(epoch, nil, opts), lay
}

// TestFirstPickUsesSolvedTable: the first pick of an engine finds no table
// and a solve due, and runs it where it stands. One goroutine on one
// processor that never yields — a coordinator whose rounds do not park —
// would otherwise draw fallback quorums, the weak node among them, for as
// long as it kept the processor.
func TestFirstPickUsesSolvedTable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	weak := nodeset.ID(4)
	s, lay := testEngine(t, StrategyOptimized, 9, func(id nodeset.ID) float64 {
		if id == weak {
			return 0.1
		}
		return 1
	})
	epoch := lay.Epoch()
	const picks = 1000
	drawn := 0
	for i := 0; i < picks; i++ {
		q, ok := s.pickRead(lay, epoch, hint(replica.OpID{Coordinator: 3, Seq: uint64(i)}))
		if !ok {
			t.Fatalf("pick %d declined: no table on the goroutine that asked", i)
		}
		if got := s.metrics.recomputes.Load(); got != 1 {
			t.Fatalf("after pick %d: %d solves, want the first pick's one", i, got)
		}
		if q.Contains(weak) {
			drawn++
		}
	}
	if drawn*50 > picks {
		t.Errorf("weak node in %d of %d read quorums, want under 2 %%", drawn, picks)
	}
	if s.recomputing.Load() {
		t.Error("the first solve left the engine marked as solving")
	}
}

// TestOptimizedUnsolvedEpochFallsBack: picks come from the table of the
// epoch they select over; an epoch that has none while no solve is due (the
// interval is an hour) is declined — the coordinator then uses the
// load-aware/hint path — not served another epoch's.
func TestOptimizedUnsolvedEpochFallsBack(t *testing.T) {
	s, lay := testEngine(t, StrategyOptimized, 9, nil)
	epoch := lay.Epoch()
	q, ok := s.pickRead(lay, epoch, 1)
	if !ok {
		t.Fatal("engine declined its first pick")
	}
	if !lay.IsReadQuorum(q) {
		t.Fatalf("picked set %v is not a read quorum", q.IDs())
	}
	w, ok := s.pickWrite(lay, epoch, 2)
	if !ok || !lay.IsWriteQuorum(w) {
		t.Fatalf("write pick %v ok=%v not a write quorum", w.IDs(), ok)
	}
	// A different epoch (node 8 gone) must invalidate the snapshot.
	shrunk := epoch.Clone()
	shrunk.Remove(8)
	if _, ok := s.pickRead(lay, shrunk, 3); ok {
		t.Fatal("stale snapshot served a pick for a different epoch")
	}
}

// TestOptimizedPicksFollowWeights: with a weak node the engine's sampled
// picks must visit it much less often than its peers.
func TestOptimizedPicksFollowWeights(t *testing.T) {
	weak := nodeset.ID(4)
	s, lay := testEngine(t, StrategyOptimized, 9, func(id nodeset.ID) float64 {
		if id == weak {
			return 0.1
		}
		return 1
	})
	s.warm(lay)
	epoch := lay.Epoch()
	visits := make(map[nodeset.ID]int)
	const picks = 20000
	for i := 0; i < picks; i++ {
		q, ok := s.pickRead(lay, epoch, hint(replica.OpID{Coordinator: 3, Seq: uint64(i)}))
		if !ok {
			t.Fatal("pick declined")
		}
		for _, id := range q.IDs() {
			visits[id]++
		}
	}
	var peerMax int
	for id, v := range visits {
		if id != weak && v > peerMax {
			peerMax = v
		}
	}
	if visits[weak] > peerMax/2 {
		t.Fatalf("weak node visited %d times vs busiest peer %d: distribution not applied", visits[weak], peerMax)
	}
	// Pick counters must account for every draw.
	var total uint64
	for _, v := range s.metrics.rPickVec.Values() {
		total += v
	}
	if total != picks {
		t.Fatalf("read pick counters sum to %d, want %d", total, picks)
	}
}

// TestOptimizedEpochCacheServesMixedEpochs: items reconfigure
// independently, so two items can transiently select over different
// epochs. Each must keep serving from its own cached distribution — the
// interleaved picks must not ping-pong the snapshot into invalidity or
// demand a fresh solve per mismatch (recomputes are rate-limited to one
// per interval, an hour here).
func TestOptimizedEpochCacheServesMixedEpochs(t *testing.T) {
	s, layFull := testEngine(t, StrategyOptimized, 9, nil)
	full := layFull.Epoch()
	shrunk := full.Clone()
	shrunk.Remove(8)
	layShrunk := coterie.Compile(Options{}.withDefaults().Rule, shrunk)
	s.warm(layFull)
	s.warm(layShrunk)
	solves := s.metrics.recomputes.Load()
	for i := 0; i < 500; i++ {
		q, ok := s.pickRead(layFull, full, hint(replica.OpID{Coordinator: 1, Seq: uint64(i)}))
		if !ok || !layFull.IsReadQuorum(q) {
			t.Fatalf("full-epoch pick i=%d ok=%v q=%v", i, ok, q.IDs())
		}
		w, ok := s.pickWrite(layShrunk, shrunk, hint(replica.OpID{Coordinator: 2, Seq: uint64(i)}))
		if !ok || !layShrunk.IsWriteQuorum(w) {
			t.Fatalf("shrunk-epoch pick i=%d ok=%v q=%v", i, ok, w.IDs())
		}
	}
	if got := s.metrics.recomputes.Load(); got != solves {
		t.Fatalf("mixed-epoch picks ran %d extra solves: mismatch triggers not rate-limited", got-solves)
	}
}

// TestOptimizedPickAllocs gates the weighted-pick hot path at zero heap
// allocations (wired into `make check-allocs`).
func TestOptimizedPickAllocs(t *testing.T) {
	s, lay := testEngine(t, StrategyOptimized, 9, nil)
	s.warm(lay)
	epoch := lay.Epoch()
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		q, ok := s.pickRead(lay, epoch, sink)
		if ok {
			sink += q.Len()
		}
		q, ok = s.pickWrite(lay, epoch, sink)
		if ok {
			sink += q.Len()
		}
	})
	if allocs != 0 {
		t.Fatalf("weighted pick allocates %v times per run, want 0", allocs)
	}
}

// TestOptimizedStrategyCluster runs a full cluster under each weighted
// strategy: operations must land (via fallback before the first solve and
// via the distribution after), and the strategy metrics must appear.
func TestOptimizedStrategyCluster(t *testing.T) {
	for _, strategy := range []QuorumStrategy{StrategyOptimized, StrategyReadDominant} {
		t.Run(strategy.String(), func(t *testing.T) {
			opts := fastOptions()
			opts.Strategy = strategy
			opts.Obs = obs.New()
			opts.OptimizeInterval = time.Millisecond
			opts.Capacity = func(id nodeset.ID) float64 {
				if id == 4 {
					return 0.25
				}
				return 1
			}
			c, err := NewCluster(9, "item", make([]byte, 16), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if c.opts.Load == nil {
				t.Fatal("cluster did not build a LoadTracker for the weighted strategy")
			}
			if c.Coordinator(0).strat == nil || c.Coordinator(0).strat != c.Coordinator(8).strat {
				t.Fatal("coordinators do not share one strategy engine")
			}
			for i := 0; i < 5; i++ {
				mustWrite(t, c, nodeset.ID(i), replica.Update{Offset: i, Data: []byte{byte('a' + i)}})
			}
			// Give the async solver a chance to publish, then keep operating
			// on the distribution path.
			deadline := time.Now().Add(2 * time.Second)
			for c.Coordinator(0).strat.snap.Load() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if c.Coordinator(0).strat.snap.Load() == nil {
				t.Fatal("no distribution snapshot published")
			}
			for i := 0; i < 20; i++ {
				mustWrite(t, c, nodeset.ID(i%9), replica.Update{Offset: 5, Data: []byte{byte('A' + i)}})
				v, _ := mustRead(t, c, nodeset.ID((i+3)%9))
				if string(v[:5]) != "abcde" {
					t.Fatalf("read %q", v[:6])
				}
			}
			snap := opts.Obs.Snapshot()
			wantCounters := map[string]bool{"core_strategy_recomputes_total": false}
			for _, c := range snap.Counters {
				if _, ok := wantCounters[c.Name]; ok && c.Value > 0 {
					wantCounters[c.Name] = true
				}
			}
			for name, seen := range wantCounters {
				if !seen {
					t.Errorf("counter %s missing or zero", name)
				}
			}
			foundCap, foundEntropy, foundSolved := false, false, 0
			for _, gv := range snap.GaugeVecs {
				switch gv.Name {
				case "core_node_declared_capacity_milli":
					foundCap = true
					if len(gv.Values) < 9 || gv.Values[4] != 250 || gv.Values[0] != 1000 {
						t.Errorf("declared capacity gauge vec %v, want node 4 at 250 and node 0 at 1000", gv.Values)
					}
				case "core_node_capacity_milli", "core_node_utilization_milli":
					// What the last solve used and predicted: measured
					// where calls were timed, so only its shape is fixed.
					foundSolved++
					if len(gv.Values) != 9 || slices.Max(gv.Values) <= 0 || slices.Min(gv.Values) < 0 {
						t.Errorf("%s = %v, want nine cells, none negative, one positive", gv.Name, gv.Values)
					}
				case "core_strategy_entropy_milli":
					foundEntropy = true
				}
			}
			if !foundCap || foundSolved != 2 {
				t.Errorf("per-node capacity gauges missing from snapshot (declared %v, solved %d of 2)", foundCap, foundSolved)
			}
			if !foundEntropy {
				t.Error("core_strategy_entropy_milli missing from snapshot")
			}
		})
	}
}

// TestParseStrategyRoundTrip pins the flag vocabulary.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []QuorumStrategy{StrategyHint, StrategyLoadAware, StrategyOptimized, StrategyReadDominant} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy(bogus) accepted")
	}
	if got, err := ParseStrategy(""); err != nil || got != StrategyHint {
		t.Errorf("ParseStrategy(\"\") = %v, %v, want hint", got, err)
	}
}
