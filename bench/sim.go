package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"coterie/internal/core"
	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/workload"
)

// simSpec describes one workload on the simulated transport. Everything a
// run does follows from the spec and the seed.
type simSpec struct {
	nodes, items       int
	itemSize, maxWrite int
	readFrac           float64
	clients            int
	// pinned: client c works item c only, so no two clients ever want the
	// same lock. Otherwise every client draws items Zipf(0.99).
	pinned      bool
	callTimeout time.Duration
	strategy    core.QuorumStrategy
	// slowNode ≥ 0 spends slowWork of processor time on every message
	// before serving it and is given relative capacity slowCapacity in the
	// weighted strategies.
	slowNode     int
	slowWork     time.Duration
	slowCapacity float64
	// faultEvery > 0: the (single) client crashes or restarts a node every
	// faultEvery operations, between two of its own operations.
	faultEvery int
}

const (
	zipfTheta = workload.DefaultZipfTheta
	// opTimeout bounds one attempt of one operation, as loadgen does.
	opTimeout = 5 * time.Second
	// simAttempts is how often the bench's sim client tries one logical
	// operation before it counts as failed. The callers are application
	// servers: like capi.Client on the TCP path they retry a refused
	// operation after a jittered backoff, and the retries are part of the
	// latency the caller sees.
	simAttempts    = 8
	simBackoffBase = time.Millisecond
	simBackoffMax  = 50 * time.Millisecond
)

// simCluster is a replicated system on one simulated network: every node
// replicates every item and hosts a coordinator per item, the paper's
// symmetric deployment (and loadgen's sim mode).
type simCluster struct {
	spec    simSpec
	net     *transport.Network
	reg     *obs.Registry
	members nodeset.Set
	nodes   []*replica.Node
	names   []string
	coords  [][]*core.Coordinator // [item][node]
	recs    []*onecopy.Recorder   // [item]
	tr      *tracer

	// down is the crashed node, or -1. Faults are injected either by the
	// workload's single client between two of its own operations or after
	// the clients have stopped, so nothing else reads it concurrently.
	down             nodeset.ID
	epochChanges     []time.Duration // CheckEpoch runs that installed an epoch
	epochCheckErrors int
}

// newSimCluster builds the cluster, touches every item once from every
// client-facing path and, for a weighted strategy, waits for the first
// solve: all of that is set-up, none of it is measured. A non-nil tracer
// puts the span-recording decorator between the protocol and the network.
func newSimCluster(spec simSpec, seed int64, tr *tracer) (*simCluster, error) {
	reg := obs.New()
	reg.SetFlight(obs.NewFlightRecorder(256))
	cl := &simCluster{
		spec:    spec,
		reg:     reg,
		net:     transport.NewNetwork(transport.WithSeed(seed), transport.WithObs(reg)),
		members: nodeset.Range(0, nodeset.ID(spec.nodes)),
		tr:      tr,
		down:    -1,
	}
	var net transport.Net = cl.net
	if tr != nil {
		net = &tracedNet{inner: cl.net, t: tr, layer: "transport"}
	}

	copts := core.Options{CallTimeout: spec.callTimeout, Obs: reg, Strategy: spec.strategy}
	if spec.strategy != core.StrategyHint {
		copts.Load = core.NewLoadTracker(net, cl.members, reg)
	}
	if spec.slowNode >= 0 {
		slow, capacity := nodeset.ID(spec.slowNode), spec.slowCapacity
		copts.Capacity = func(id nodeset.ID) float64 {
			if id == slow {
				return capacity
			}
			return 1
		}
	}
	if spec.strategy.Weighted() {
		copts.Engine = core.NewStrategyEngine(cl.members, copts.Load, copts)
	}
	copts.Replica = replica.Config{LockLease: 4 * spec.callTimeout, Obs: reg}

	cl.nodes = make([]*replica.Node, spec.nodes)
	for i := range cl.nodes {
		cl.nodes[i] = replica.NewNode(nodeset.ID(i), net, copts.Replica)
	}
	if spec.slowNode >= 0 {
		// A weak node: every message it serves first costs it slowWork of
		// its processor. Busy work, not a sleep — with a sleep both
		// clients spend most of the run parked on timers, and on this
		// kind of host (a small VM) the wake-up cost of an idle processor
		// drifts enough to move a 10 µs median by half between runs.
		inner, work := cl.nodes[spec.slowNode].Handler(), spec.slowWork
		net.Register(nodeset.ID(spec.slowNode), func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			for began := time.Now(); time.Since(began) < work; {
			}
			return inner(ctx, from, req)
		})
	}
	initial := make([]byte, spec.itemSize)
	cl.coords = make([][]*core.Coordinator, spec.items)
	for it := range cl.coords {
		name := fmt.Sprintf("item-%d", it)
		cl.names = append(cl.names, name)
		cl.recs = append(cl.recs, onecopy.NewRecorder(initial))
		cl.coords[it] = make([]*core.Coordinator, spec.nodes)
		for i, n := range cl.nodes {
			rep, err := n.AddItem(name, cl.members, initial)
			if err != nil {
				cl.close()
				return nil, err
			}
			cl.coords[it][i] = core.NewCoordinator(rep, net, cl.members, copts)
		}
	}

	ctx := context.Background()
	for it := range cl.coords {
		if err := cl.attempt(ctx, it, 0, false, replica.Update{Offset: 0, Data: []byte{'0'}}, nil); err != nil {
			cl.close()
			return nil, fmt.Errorf("pre-touch write of %s: %w", cl.names[it], err)
		}
		if err := cl.attempt(ctx, it, spec.nodes-1, true, replica.Update{}, nil); err != nil {
			cl.close()
			return nil, fmt.Errorf("pre-touch read of %s: %w", cl.names[it], err)
		}
	}
	if spec.strategy.Weighted() {
		solved := reg.Counter("core_strategy_recomputes_total")
		for deadline := time.Now().Add(5 * time.Second); solved.Load() == 0; {
			if time.Now().After(deadline) {
				cl.close()
				return nil, errors.New("first strategy solve did not land within 5s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return cl, nil
}

func (cl *simCluster) close() {
	for _, n := range cl.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// attempt runs one protocol operation through item's coordinator on node
// and records it in the item's history: a successful read or write as what
// it observed or produced, a write that failed with anything but a clean
// conflict abort as possibly applied.
func (cl *simCluster) attempt(ctx context.Context, item, node int, isRead bool, u replica.Update, acc *traceAcc) error {
	co, rec := cl.coords[item][node], cl.recs[item]
	opCtx, release := deadline.Bound(ctx, opTimeout)
	defer release()
	start := rec.Begin()
	var (
		value   []byte
		version uint64
	)
	if isRead {
		err := cl.tr.root(opCtx, "core.Coordinator.Read", true, acc, func(ctx context.Context) (err error) {
			value, version, err = co.Read(ctx)
			return err
		})
		if err == nil {
			rec.EndRead(start, version, value)
		}
		return err
	}
	err := cl.tr.root(opCtx, "core.Coordinator.Write", false, acc, func(ctx context.Context) (err error) {
		version, err = co.Write(ctx, u)
		return err
	})
	switch {
	case err == nil:
		rec.EndWrite(start, version, u)
	case !errors.Is(err, core.ErrConflict):
		rec.EndMaybeWrite(start, u)
	}
	return err
}

// simClient is one closed-loop caller. Its operation stream (kind,
// coordinator node, update bytes) comes from a workload.Generator and its
// item choice from a Zipf stream, both seeded from the run's seed.
type simClient struct {
	cl   *simCluster
	id   int
	gen  *workload.Generator
	zipf *workload.Zipf
	rng  *rand.Rand // backoff jitter
	acc  traceAcc

	sched faultSchedule
}

func (cl *simCluster) newClients(seed int64) ([]client, error) {
	gens, zipfs, err := newStreams(workload.Config{
		Members: cl.members, ReadFraction: cl.spec.readFrac,
		ItemSize: cl.spec.itemSize, MaxWriteLen: cl.spec.maxWrite, Seed: seed,
	}, cl.spec.items, cl.spec.clients)
	if err != nil {
		return nil, err
	}
	out := make([]client, cl.spec.clients)
	for c := range out {
		out[c] = &simClient{
			cl: cl, id: c, gen: gens[c], zipf: zipfs[c],
			rng:   rand.New(rand.NewSource(seed ^ int64(c+1)<<32)),
			sched: faultSchedule{every: cl.spec.faultEvery, nodes: cl.spec.nodes},
		}
	}
	return out, nil
}

// newStreams derives one operation generator and one Zipf(0.99) stream
// over zipfN ranks per client, all from cfg.Seed.
func newStreams(cfg workload.Config, zipfN, clients int) ([]*workload.Generator, []*workload.Zipf, error) {
	root, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	gens, err := root.Split(clients)
	if err != nil {
		return nil, nil, err
	}
	zroot, err := workload.NewZipf(uint64(zipfN), zipfTheta, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	zipfs, err := zroot.Split(clients)
	return gens, zipfs, err
}

// item picks the item of the client's next operation.
func (c *simClient) item() int {
	if c.cl.spec.pinned {
		return c.id % c.cl.spec.items
	}
	return int(c.zipf.Next())
}

func (c *simClient) traced() *traceAcc { return &c.acc }

func (c *simClient) step(ctx context.Context, st *clientStats) (bool, time.Duration, error) {
	switch ev := c.sched.next(); ev.action {
	case faultCrash:
		if err := c.cl.crash(ctx, ev.victim); err != nil {
			return false, 0, err
		}
	case faultRestart:
		d, err := c.cl.restart(ctx, ev.victim)
		if err != nil {
			return false, 0, err
		}
		st.recoveries = append(st.recoveries, d)
	}
	op := c.gen.Next()
	node := op.Coordinator
	if node == c.cl.down {
		node = (node + 1) % nodeset.ID(c.cl.spec.nodes)
	}
	item, isRead := c.item(), op.Kind == workload.OpRead

	began := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.cl.attempt(ctx, item, int(node), isRead, op.Update, &c.acc); err == nil {
			break
		}
		st.errs[classify(err)]++
		if attempt+1 == simAttempts {
			break
		}
		st.retries++
		time.Sleep(backoff(c.rng, attempt))
	}
	return isRead, time.Since(began), err
}

// backoff is capi.Client's retry delay: doubling from the base, capped,
// jittered to [0.5, 1.5) of the nominal value.
func backoff(rng *rand.Rand, attempt int) time.Duration {
	d := simBackoffBase << uint(attempt)
	if d > simBackoffMax || d <= 0 {
		d = simBackoffMax
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// Fault injection. A crash is fail-stop with stable storage (the paper's
// model): the node's replicas keep their state and rejoin stale.

type faultAction int

const (
	faultNone faultAction = iota
	faultCrash
	faultRestart
)

type faultEvent struct {
	action faultAction
	victim nodeset.ID
}

// faultSchedule places faults at operation-count boundaries: before
// operation every, 3·every, 5·every, … crash the next victim, before
// operation 2·every, 4·every, … restart it. Counting operations instead of
// reading a clock makes the k-th fault hit the same point of the operation
// stream on every run.
type faultSchedule struct {
	every int
	nodes int
	ops   int
}

// next is called once before each operation.
func (s *faultSchedule) next() faultEvent {
	n := s.ops
	s.ops++
	if s.every <= 0 || n == 0 || n%s.every != 0 {
		return faultEvent{}
	}
	phase := n / s.every // 1 crash, 2 restart, 3 crash, …
	victim := nodeset.ID(((phase - 1) / 2) % s.nodes)
	if phase%2 == 1 {
		return faultEvent{faultCrash, victim}
	}
	return faultEvent{faultRestart, victim}
}

// checkEpochs runs the epoch-checking operation on every item from a live
// node next to victim until that node's epoch has victim as a member, or
// not, as wanted; it times the runs that install a new epoch. One run is
// often not enough: a check gives up — or concludes that nothing changed —
// when in-flight propagation, or a lock the victim granted before it
// crashed, keeps a replica busy. Checks that failed are counted. A
// deployment repeats the check the same way, on its periodic pulse.
func (cl *simCluster) checkEpochs(ctx context.Context, victim nodeset.ID, wantMember bool) error {
	from := (int(victim) + 1) % cl.spec.nodes
	giveUp := time.Now().Add(10 * time.Second)
	for it, name := range cl.names {
		for {
			began := time.Now()
			res, err := cl.coords[it][from].CheckEpoch(ctx)
			switch {
			case err != nil:
				cl.epochCheckErrors++
			case res.Changed:
				cl.epochChanges = append(cl.epochChanges, time.Since(began))
			}
			if cl.nodes[from].Item(name).State().Epoch.Contains(victim) == wantMember {
				break
			}
			if time.Now().After(giveUp) {
				return fmt.Errorf("epoch of %s: node %d member=%v not reached in 10s (last check: %v)", name, victim, wantMember, err)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// crash fails victim at a quiet point; see quiesce.
func (cl *simCluster) crash(ctx context.Context, victim nodeset.ID) error {
	if err := cl.quiesce(ctx); err != nil {
		return err
	}
	cl.net.Crash(victim)
	cl.down = victim
	return cl.checkEpochs(ctx, victim, false)
}

// quiesce waits until no replica is marked stale: everything the preceding
// writes left to propagation has arrived. The paper's model has failures
// arrive rarely compared with propagation; a closed-loop writer outruns
// propagation and can leave one current replica per item, and crashing
// exactly that one makes the item unavailable by design — an availability
// question (Table 1), not the cost this benchmark measures. Starting every
// fault cycle from the same state is also what makes the cycles comparable:
// without it the number of lagging replicas drifts over a run and the
// share of operations that need the heavy procedure with it.
//
// Waiting is not always enough. A propagation source can drop a target
// that still needs it (an "i-am-current" answer to an offer made before
// the source applied the write that marked the target stale removes the
// merged duty), and such a replica is only offered the data again when a
// later write or epoch change reaches it — which a paused client never
// causes. After quietNudge without progress the injector therefore issues
// a one-byte write of its own through the stuck node's coordinator, whose
// quorums include that node.
func (cl *simCluster) quiesce(ctx context.Context) error {
	giveUp := time.Now().Add(10 * time.Second)
	for it, name := range cl.names {
		nudged := time.Now()
		for {
			stale := -1
			for id, n := range cl.nodes {
				if cl.net.IsUp(nodeset.ID(id)) && n.Item(name).State().Stale {
					stale = id
					break
				}
			}
			if stale < 0 {
				break
			}
			if time.Now().After(giveUp) {
				return fmt.Errorf("node %d's replica of %s still stale 10s after the last operation", stale, name)
			}
			if time.Since(nudged) > quietNudge {
				// A failed nudge is simply repeated.
				_ = cl.attempt(ctx, it, stale, false, replica.Update{Offset: 0, Data: []byte{'n'}}, nil)
				nudged = time.Now()
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// quietNudge is two propagation retry pauses.
const quietNudge = 50 * time.Millisecond

// awaitCurrent waits until every replica on node id has adopted the epoch
// its live neighbour is in and is not marked stale.
func (cl *simCluster) awaitCurrent(id nodeset.ID) error {
	live := (int(id) + 1) % cl.spec.nodes
	giveUp := time.Now().Add(10 * time.Second)
	for _, name := range cl.names {
		epochNum := cl.nodes[live].Item(name).State().EpochNum
		rep := cl.nodes[id].Item(name)
		for {
			st := rep.State()
			if !st.Stale && !st.Recovering && st.EpochNum == epochNum && st.Epoch.Contains(id) {
				break
			}
			if time.Now().After(giveUp) {
				return fmt.Errorf("node %d's replica of %s not current after 10s (stale=%v epoch %d=%v, neighbour's epoch %d)", id, name, st.Stale, st.EpochNum, st.Epoch, epochNum)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// restart brings victim back and returns the recovery time: from the
// restart until every replica on it is a current (non-stale) member of the
// full epoch again — one epoch check to readmit it, then propagation.
func (cl *simCluster) restart(ctx context.Context, victim nodeset.ID) (time.Duration, error) {
	began := time.Now()
	cl.net.Restart(victim)
	cl.down = -1
	if err := cl.checkEpochs(ctx, victim, true); err != nil {
		return 0, err
	}
	if err := cl.awaitCurrent(victim); err != nil {
		return 0, err
	}
	recovery := time.Since(began)
	// Nothing else is running: what the restarted node now holds must be
	// exactly what the protocol reads.
	live := (int(victim) + 1) % cl.spec.nodes
	for it, name := range cl.names {
		want, version, err := cl.coords[it][live].Read(ctx)
		if err != nil {
			return 0, fmt.Errorf("read of %s after recovery: %w", name, err)
		}
		if got, v := cl.nodes[victim].Item(name).Value(); v != version || !bytes.Equal(got, want) {
			return 0, fmt.Errorf("node %d recovered %s at v%d, the protocol reads v%d", victim, name, v, version)
		}
	}
	return recovery, nil
}

// verify reads every item back through the protocol, adds that read to
// the item's history and checks the history: the final value must be the
// replay of the acknowledged writes, and the whole run one-copy
// serializable. It returns the number of events checked.
func (cl *simCluster) verify(ctx context.Context) (int, error) {
	if cl.down >= 0 { // the run ended inside a fault cycle
		if _, err := cl.restart(ctx, cl.down); err != nil {
			return 0, err
		}
	}
	return verifyHistories(cl.recs, cl.names, cl.spec.itemSize, func(it int) error {
		return cl.attempt(ctx, it, 0, true, replica.Update{}, nil)
	})
}

// verifyHistories reads every item back (readBack records the read in the
// item's history) and checks every history against an all-zero initial
// value of the given size. It returns the number of events checked.
func verifyHistories(recs []*onecopy.Recorder, names []string, size int, readBack func(i int) error) (int, error) {
	events := 0
	for i, rec := range recs {
		if err := readBack(i); err != nil {
			return events, fmt.Errorf("read-back of %s: %w", names[i], err)
		}
		evs := rec.Events()
		events += len(evs)
		if err := checkHistory(make([]byte, size), evs); err != nil {
			return events, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return events, nil
}

// forget drops the recorded histories so the live-heap reading covers the
// cluster and not the instrument; later traffic records into empty ones.
func (cl *simCluster) forget() { forgetHistories(cl.recs) }

func forgetHistories(recs []*onecopy.Recorder) {
	for i := range recs {
		recs[i] = onecopy.NewRecorder(nil)
	}
}

func (cl *simCluster) epochStats() ([]time.Duration, int) {
	return cl.epochChanges, cl.epochCheckErrors
}

// counters snapshots the cumulative layer counters: the shared registry's
// plus the network's own message count.
func (cl *simCluster) counters() counters {
	c := counters{}
	c.addRegistry(cl.reg)
	c["transport_messages"] = float64(cl.net.Stats().Messages)
	return c
}
