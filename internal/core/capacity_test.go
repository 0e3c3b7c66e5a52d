package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// fedEngine is a nine-node weighted-strategy engine over a tracker whose
// call-time cells the test fills by hand: feed records calls of one length
// to a node, solve runs one quorum solve (the engine never ticks by
// itself), share reports a node's part of the solved read and write mass in
// units of a fair share (one ninth of the mass).
type fedEngine struct {
	eng   *StrategyEngine
	lay   *coterie.Layout
	cells *obs.HistogramVec
}

func newFedEngine(t *testing.T, reg *obs.Registry, declared coterie.LoadFunc) *fedEngine {
	t.Helper()
	opts := Options{Strategy: StrategyOptimized, Obs: reg, Capacity: declared, OptimizeInterval: time.Hour}.withDefaults()
	epoch := nodeset.Range(0, 9)
	tr := newLoadTracker(epoch, func(nodeset.ID) uint64 { return 0 }, reg)
	return &fedEngine{
		eng:   NewStrategyEngine(epoch, tr, opts),
		lay:   coterie.Compile(opts.Rule, epoch),
		cells: reg.HistogramVec(transport.EndpointCallNs),
	}
}

func (f *fedEngine) feed(id nodeset.ID, calls int, each time.Duration) {
	for i := 0; i < calls; i++ {
		f.cells.At(int(id)).RecordDuration(each)
	}
}

// feedFast gives every node but skip a solve interval's worth of 2 µs calls.
func (f *fedEngine) feedFast(skip nodeset.ID) {
	for id := nodeset.ID(0); id < 9; id++ {
		if id != skip {
			f.feed(id, 100, 2*time.Microsecond)
		}
	}
}

func (f *fedEngine) solve() { f.eng.warm(f.lay) }

func (f *fedEngine) share(id nodeset.ID) (read, write float64) {
	snap := f.eng.snap.Load()
	part := func(quorums []nodeset.Set, table *coterie.Alias) float64 {
		var mine, all float64
		for k, q := range quorums {
			all += table.Weight(k) * float64(q.Len())
			if q.Contains(id) {
				mine += table.Weight(k)
			}
		}
		return mine / (all / 9)
	}
	return part(snap.reads, snap.rTable), part(snap.writes, snap.wTable)
}

// TestMeasuredCapacityControlLoop walks one slow node through the loop: a
// node whose calls take 500 times the others' is solved out of the quorums,
// keeps that estimate while it is starved of calls, is offered traffic
// again once relaxAfter solves have passed without a measurement, and is
// back at half a fair share within eight solves of answering quickly.
func TestMeasuredCapacityControlLoop(t *testing.T) {
	const slow = nodeset.ID(4)
	f := newFedEngine(t, obs.New(), nil)
	f.feedFast(slow)
	f.feed(slow, 100, time.Millisecond)
	f.solve()
	if r, w := f.share(slow); r > 0.01 || w > 0.01 {
		t.Fatalf("a node 500 times slower holds %.4f of a fair read share and %.4f of a fair write share, want at most 0.01", r, w)
	}

	// Starved: ten solves with no call to it, or the odd one (fewer than
	// minCallSamples in all). The estimate must not drift back to "fast".
	for i := 0; i < 10; i++ {
		f.feedFast(slow)
		if i%3 == 0 {
			f.feed(slow, 1, time.Millisecond)
		}
		f.solve()
		if r, w := f.share(slow); r > 0.01 || w > 0.01 {
			t.Fatalf("starved for %d solves, the slow node is back at %.4f / %.4f of a fair share", i+1, r, w)
		}
	}

	// Relaxation: after relaxAfter sample-less solves the estimate starts
	// moving towards the declared capacity and the node is offered traffic.
	offered := 0
	for i := 10; i < relaxAfter+3 && offered == 0; i++ {
		f.feedFast(slow)
		f.solve()
		if r, _ := f.share(slow); r > 0.01 {
			offered = i + 1
		}
	}
	if offered <= relaxAfter {
		t.Fatalf("slow node offered traffic after %d sample-less solves, want only after %d (0 = never)", offered, relaxAfter)
	}

	// Recovered: it now answers as quickly as the rest.
	for i := 1; ; i++ {
		f.feedFast(slow)
		f.feed(slow, 100, 2*time.Microsecond)
		f.solve()
		if r, w := f.share(slow); r >= 0.5 && w >= 0.5 {
			break
		}
		if i == 8 {
			r, w := f.share(slow)
			t.Fatalf("eight solves after recovering, the node holds %.2f / %.2f of a fair share, want at least 0.5", r, w)
		}
	}
}

// TestMeasuredCapacityStillSlowAfterProbe: the traffic relaxation offers a
// node that has not recovered is what re-measures it; it is solved out
// again at the next solve.
func TestMeasuredCapacityStillSlowAfterProbe(t *testing.T) {
	const slow = nodeset.ID(4)
	f := newFedEngine(t, obs.New(), nil)
	f.feedFast(slow)
	f.feed(slow, 100, time.Millisecond)
	for i := 0; i <= relaxAfter+1; i++ {
		f.solve()
		f.feedFast(slow)
	}
	if r, _ := f.share(slow); r <= 0.01 {
		t.Fatalf("not offered traffic after %d sample-less solves (%.4f of a fair read share)", relaxAfter+2, r)
	}
	f.feed(slow, minCallSamples, time.Millisecond)
	f.solve()
	f.feedFast(slow)
	f.feed(slow, minCallSamples, time.Millisecond)
	f.solve()
	if r, w := f.share(slow); r > 0.02 || w > 0.02 {
		t.Fatalf("probed and still slow, the node holds %.4f / %.4f of a fair share", r, w)
	}
}

// TestPricedOutNodeIsTimedAgain: the solver gives a seat that buys less than
// its tolerance exactly nothing, so a node priced out is never called and no
// call time can show that it has recovered. The relaxation is the only thing
// that probes it: not one candidate containing it has any weight before the
// relaxAfter-th solve without a measurement, and within five solves of that
// one it is drawn again — here it answers those calls quickly, and stays.
func TestPricedOutNodeIsTimedAgain(t *testing.T) {
	const slow = nodeset.ID(4)
	f := newFedEngine(t, obs.New(), nil)
	f.feedFast(slow)
	f.feed(slow, 100, time.Millisecond)
	f.solve()
	back := 0
	for i := 1; i <= relaxAfter+5; i++ {
		f.feedFast(slow)
		r, w := f.share(slow)
		switch {
		case r+w > 0:
			// Drawn: it is called, and by now it is as quick as the rest.
			f.feed(slow, 100, 2*time.Microsecond)
			if back == 0 {
				back = i - 1
			}
		case back > 0:
			t.Fatalf("solve %d: the node answered quickly and was dropped again", i-1)
		}
		f.solve()
	}
	if back < relaxAfter {
		t.Fatalf("a node nobody calls was back in the quorums after solve %d (0 = never), want %d to %d", back, relaxAfter, relaxAfter+5)
	}
	if r, w := f.share(slow); r < 0.5 || w < 0.5 {
		t.Fatalf("timed quick again since solve %d, the node holds %.2f / %.2f of a fair share", back, r, w)
	}
}

// TestFailedCallsDoNotLowerMean: calls that fail are not timed, so a node
// that crashes after being measured slow keeps its mean however quickly the
// calls to it now fail.
func TestFailedCallsDoNotLowerMean(t *testing.T) {
	reg := obs.New()
	net := transport.NewNetwork(transport.WithObs(reg))
	members := nodeset.Range(0, 3)
	for _, id := range members.IDs() {
		work := time.Duration(0)
		if id == 2 {
			work = 200 * time.Microsecond
		}
		net.Register(id, func(context.Context, nodeset.ID, transport.Message) (transport.Message, error) {
			for began := time.Now(); time.Since(began) < work; {
			}
			return "ok", nil
		})
	}
	tr := NewLoadTracker(net, members, reg)
	ctx := context.Background()
	for i := 0; i < 4*minCallSamples; i++ {
		for _, id := range members.IDs() {
			if _, err := net.Call(ctx, 0, id, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := tr.capacity(nil)(2)
	if before > 0.2 {
		t.Fatalf("node burning 200 µs a message measured at capacity %.3f", before)
	}
	net.Crash(2)
	for i := 0; i < 100*minCallSamples; i++ {
		if _, err := net.Call(ctx, 0, 2, "x"); !errors.Is(err, transport.ErrCallFailed) {
			t.Fatalf("call to a crashed node: %v", err)
		}
		net.Call(ctx, 0, 1, "x") //nolint:errcheck // keeps node 1 measured
	}
	if after := tr.capacity(nil)(2); after > before*1.5 {
		t.Fatalf("failed calls raised the crashed node's capacity %.4f -> %.4f", before, after)
	}
}

// TestNoMeasurementIsTheDeclaredSolve: on obs.Nop there are no cells, the
// tracker hands the declared capacities through untouched, and the solve is
// bit for bit the one an engine without a tracker computes.
func TestNoMeasurementIsTheDeclaredSolve(t *testing.T) {
	declared := func(id nodeset.ID) float64 {
		if id == 4 {
			return 0.1
		}
		return 1
	}
	tr := newLoadTracker(nodeset.Range(0, 9), func(nodeset.ID) uint64 { return 0 }, obs.Nop)
	if got := tr.capacity(nil); got != nil {
		t.Fatal("no measurement and nothing declared, yet the tracker made up capacities")
	}
	for id := nodeset.ID(0); id < 9; id++ {
		if got := tr.capacity(declared)(id); got != declared(id) {
			t.Fatalf("capacity(%d) = %v without a measurement, declared %v", id, got, declared(id))
		}
	}

	with := newFedEngine(t, obs.Nop, declared)
	without, lay := testEngine(t, StrategyOptimized, 9, declared)
	for i := 0; i < 3; i++ {
		with.solve()
	}
	without.warm(lay)
	a, b := with.eng.snap.Load(), without.snap.Load()
	for k := range a.reads {
		if a.rTable.Weight(k) != b.rTable.Weight(k) {
			t.Fatalf("read weight %d differs: %v with a tracker, %v without", k, a.rTable.Weight(k), b.rTable.Weight(k))
		}
	}
	for k := range a.writes {
		if a.wTable.Weight(k) != b.wTable.Weight(k) {
			t.Fatalf("write weight %d differs: %v with a tracker, %v without", k, a.wTable.Weight(k), b.wTable.Weight(k))
		}
	}
}

// TestMeasuredCapacityAllocs gates the steady state of the loop (`make
// check-allocs`): a tracker refresh and a read and a write pick from the
// measured strategy allocate nothing, and advancing the tracker by one
// solve allocates the capacity table and its reader and no more.
func TestMeasuredCapacityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race")
	}
	f := newFedEngine(t, obs.New(), nil)
	f.feedFast(-1)
	f.solve()
	epoch := f.lay.Epoch()
	var sink int
	if allocs := testing.AllocsPerRun(1000, func() {
		f.cells.At(3).Record(2000)
		f.eng.load.Refresh()
		q, _ := f.eng.pickRead(f.lay, epoch, sink)
		w, _ := f.eng.pickWrite(f.lay, epoch, sink)
		sink += q.Len() + w.Len()
	}); allocs != 0 {
		t.Errorf("a refresh and two picks allocate %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		f.cells.At(3).Record(2000)
		sink += int(f.eng.load.capacity(nil)(3))
	}); allocs > 2 {
		t.Errorf("one solve's tracker step allocates %.1f objects, want at most 2", allocs)
	}
}

// TestSlowNodeWithoutDeclaredCapacity is the loop end to end: nine nodes on
// the simulated network, node 4 burning 500 µs of processor per message (a
// capacity near 0.008; at 200 µs it sits at the 0.02 where a seat starts to
// buy the tolerance, and is drawn now and then), nobody told the strategy,
// 90 % reads. Within a second its share of the quorum seats — the calls the
// transport times, which are what the solve decides — falls below a tenth of
// a percent: its seat buys nothing, so between probes it has none, and what
// is left are the heavy procedures, which poll everybody (0.00 to 0.03 %
// over a second, in bursts). The history stays one-copy. Its share of all
// messages served cannot fall that far: one write in ten
// operations still pushes its update through to it one-way (0.1 of the 4.1
// messages an operation sends), because the push plan follows the declared
// capacities and none is declared here.
func TestSlowNodeWithoutDeclaredCapacity(t *testing.T) {
	const slow = nodeset.ID(4)
	reg := obs.New()
	opts := fastOptions()
	opts.Strategy = StrategyOptimized
	opts.Obs = reg
	// Solved out by the second or third solve; the first probe is relaxAfter
	// solves later, beyond both windows (a probe is some fifty calls:
	// TestPricedOutNodeIsTimedAgain is where probes are shown).
	opts.OptimizeInterval = 100 * time.Millisecond
	c, err := NewCluster(9, "item", make([]byte, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Under the race detector every other handler is some ten times slower;
	// the slow node's handicap is kept in proportion.
	burn := 500 * time.Microsecond
	if raceEnabled {
		burn *= 10
	}
	inner := c.Node(slow).Handler()
	c.Net.Register(slow, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		for began := time.Now(); time.Since(began) < burn; {
		}
		return inner(ctx, from, req)
	})

	rec := onecopy.NewRecorder(make([]byte, 64))
	total := func() (slowNode, all uint64) {
		for id, h := range reg.HistogramVec(transport.EndpointCallNs).Snapshots() {
			all += h.Count
			if nodeset.ID(id) == slow {
				slowNode = h.Count
			}
		}
		return slowNode, all
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	run := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					co := c.Coordinator(nodeset.ID((w*5 + i) % 9))
					start := rec.Begin()
					if i%10 != 0 {
						// Every write is recorded and one read in eight: the
						// checker is quadratic in what it is given.
						if value, version, err := co.Read(ctx); err == nil && i%8 == 0 {
							rec.EndRead(start, version, value)
						}
						continue
					}
					u := replica.Update{Offset: (w*8 + i) % 56, Data: []byte{byte(w), byte(i)}}
					version, err := co.Write(ctx, u)
					switch {
					case err == nil:
						rec.EndWrite(start, version, u)
					case !errors.Is(err, ErrConflict):
						rec.EndMaybeWrite(start, u)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	run(time.Second)
	slow0, all0 := total()
	run(time.Second)
	slow1, all1 := total()
	share := float64(slow1-slow0) / float64(all1-all0)
	t.Logf("slow node: %d of %d calls in the second window (%.3f %%)", slow1-slow0, all1-all0, 100*share)
	if share >= 0.001 {
		t.Errorf("after one second the slow node still answers %.3f %% of %d calls, want under 0.1 %% (a ninth is %.1f %%)",
			100*share, all1-all0, 100.0/9)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("one-copy check: %v", err)
	}
}
