package capi

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/placement"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Client is the smart client side of the sharded data plane: it caches the
// cluster's shard map and routes each operation directly to a daemon that
// owns the item's shard, with the retry and tail-latency machinery a real
// deployment needs layered on top:
//
//   - Per-operation deadlines (ClientConfig.OpTimeout) bound the whole
//     retry loop; per-attempt deadlines (CallTimeout) bound each RPC.
//   - Retries use jittered exponential backoff, and writes only retry
//     dispositions that are provably side-effect free (lock-conflict
//     aborts, wrong-shard refusals) — an ambiguous write is surfaced, not
//     resent, so the client can never duplicate a committed write.
//   - Stale shard maps self-heal: a StatusWrongShard answer triggers a
//     MapQuery refresh and an immediate re-route.
//   - Hedged reads ("The Tail at Scale"): when a read attempt has not
//     answered within a delay derived from the client's observed p99 read
//     latency, a second request goes to an alternate shard member — an
//     alternate coterie quorum — and the first response wins; the loser's
//     context is canceled. Only reads hedge: a hedged write could commit
//     twice.
//
// A Client is safe for concurrent use by many goroutines; one Client per
// process is the intended shape so the latency histogram that drives the
// hedge delay sees every read.
// ErrAmbiguous marks a write whose outcome is unknown: the RPC failed
// after the request may already have reached a coordinator, so the write
// may or may not have committed. Callers tracking history (onecopy) must
// treat such a write as a wildcard, and must not blindly resend it.
var ErrAmbiguous = errors.New("write outcome ambiguous")

type Client struct {
	net transport.Net
	cfg ClientConfig

	pmap atomic.Pointer[placement.Map]
	rng  atomic.Uint64

	// readLat observes per-attempt read latency (successful attempts
	// only); its p99 sets the hedge trigger delay. Always real, even with
	// observability disabled, because hedging needs the signal.
	readLat    obs.Histogram
	hedgeTick  atomic.Uint64
	hedgeCache atomic.Int64 // cached hedge delay, ns
	traceTick  atomic.Uint64

	retries       obs.Counter
	hedgeFired    obs.Counter
	hedgeWon      obs.Counter
	hedgeCanceled obs.Counter
	wrongShard    obs.Counter
	mapRefresh    obs.Counter
	traceSampled  obs.Counter

	// Tail attribution: which node served each successful read (the hedge
	// winner when one fired) and the per-shard read-attempt latency
	// distribution, so a BENCH run's p999 can be pinned to specific
	// nodes/shards instead of staying an anonymous cluster-wide number.
	winnerNode obs.CounterVec
	routeLat   obs.HistogramVec
}

const (
	// maxAttempts caps the attempts per operation.
	maxAttempts = 5
	// backoffBase is the pre-jitter backoff after the first failed attempt,
	// doubling per attempt up to backoffMax.
	backoffBase = 2 * time.Millisecond
	backoffMax  = 200 * time.Millisecond
	// hedgeMin floors the hedge delay — below it, hedging fires on noise
	// and doubles read traffic for nothing. hedgeMax caps it.
	hedgeMin = time.Millisecond
	hedgeMax = 100 * time.Millisecond
)

// ClientConfig parameterizes a Client. Zero values take the documented
// defaults.
type ClientConfig struct {
	// Self is this client's transport identity. It must be distinct from
	// every daemon's node ID and from other clients sharing the transport.
	Self nodeset.ID
	// Seeds are daemons to bootstrap and refresh the shard map from. Every
	// daemon serves MapQuery, so any subset works; more seeds tolerate
	// more daemon failures during refresh.
	Seeds []nodeset.ID
	// OpTimeout bounds one logical operation including all retries.
	// Default 10s.
	OpTimeout time.Duration
	// CallTimeout bounds each RPC attempt. Default 2s.
	CallTimeout time.Duration
	// Hedge enables hedged reads.
	Hedge bool
	// Obs, when set, exposes the client's counters (capi_retry_total,
	// capi_hedge_fired_total, capi_hedge_won_total,
	// capi_hedge_canceled_total, capi_wrong_shard_total,
	// capi_map_refresh_total, capi_trace_sampled_total), its read-attempt
	// latency histogram (capi_read_attempt_ns), the per-winner-node read
	// counter vector (capi_read_winner_node_total) and the per-shard
	// route-latency histogram vector (capi_route_latency_ns) through the
	// registry. The client counts either way.
	Obs *obs.Registry
	// Seed seeds the jitter/rotation RNG; 0 derives one from Self.
	Seed uint64
	// TraceSample mints a sampled distributed-trace context for one in
	// every TraceSample reads/writes (1 = every operation, 0 = tracing
	// off). Sampled operations tag every wire frame they cause with a
	// cluster-unique trace ID, so each involved node's flight recorder
	// captures a correlated span.
	TraceSample int
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.OpTimeout == 0 {
		c.OpTimeout = 10 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = uint64(c.Self)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	return c
}

// NewClient builds a Client over net. Call Refresh (or any operation,
// which refreshes lazily) before routing.
func NewClient(net transport.Net, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("capi: client needs at least one seed daemon")
	}
	c := &Client{net: net, cfg: cfg}
	c.rng.Store(cfg.Seed)
	cfg.Obs.AdoptCounter("capi_retry_total", &c.retries)
	cfg.Obs.AdoptCounter("capi_hedge_fired_total", &c.hedgeFired)
	cfg.Obs.AdoptCounter("capi_hedge_won_total", &c.hedgeWon)
	cfg.Obs.AdoptCounter("capi_hedge_canceled_total", &c.hedgeCanceled)
	cfg.Obs.AdoptCounter("capi_wrong_shard_total", &c.wrongShard)
	cfg.Obs.AdoptCounter("capi_map_refresh_total", &c.mapRefresh)
	cfg.Obs.AdoptCounter("capi_trace_sampled_total", &c.traceSampled)
	cfg.Obs.AdoptHistogram("capi_read_attempt_ns", &c.readLat)
	cfg.Obs.AdoptCounterVec("capi_read_winner_node_total", &c.winnerNode)
	cfg.Obs.AdoptHistogramVec("capi_route_latency_ns", &c.routeLat)
	return c, nil
}

// mintTrace applies the sampling policy: one in cfg.TraceSample operations
// gets a fresh sampled trace context attached to its context; the rest run
// untraced and pay a single flags byte per frame. A caller-supplied trace
// (already on ctx) always wins, so an operator can force-trace one request
// end to end.
func (c *Client) mintTrace(ctx context.Context) context.Context {
	n := c.cfg.TraceSample
	if n <= 0 || obs.TraceFrom(ctx).Valid() {
		return ctx
	}
	if n > 1 && c.traceTick.Add(1)%uint64(n) != 0 {
		return ctx
	}
	id := c.rand()
	if id == 0 {
		id = 1 // trace ID zero means "untraced" on the wire
	}
	c.traceSampled.Inc()
	return obs.WithTrace(ctx, obs.TraceContext{TraceID: id, SpanID: c.rand(), Sampled: true})
}

// Map returns the cached shard map, or nil before the first refresh.
func (c *Client) Map() *placement.Map { return c.pmap.Load() }

// ClientStats is a point-in-time copy of the client's counters.
type ClientStats struct {
	Retries       uint64 `json:"retries"`
	Hedges        uint64 `json:"hedges"`
	HedgeWins     uint64 `json:"hedge_wins"`
	HedgeCanceled uint64 `json:"hedge_canceled"`
	WrongShard    uint64 `json:"wrong_shard"`
	MapRefresh    uint64 `json:"map_refresh"`
	TracesSampled uint64 `json:"traces_sampled"`
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:       c.retries.Load(),
		Hedges:        c.hedgeFired.Load(),
		HedgeWins:     c.hedgeWon.Load(),
		HedgeCanceled: c.hedgeCanceled.Load(),
		WrongShard:    c.wrongShard.Load(),
		MapRefresh:    c.mapRefresh.Load(),
		TracesSampled: c.traceSampled.Load(),
	}
}

// Refresh fetches the shard map from a seed daemon, rotating through
// seeds until one answers. It is cheap when the map is already current:
// the daemon echoes just the version for a matching HaveVersion.
func (c *Client) Refresh(ctx context.Context) error {
	cur := c.pmap.Load()
	var have uint64
	if cur != nil {
		have = cur.Version()
	}
	off := int(c.rand() % uint64(len(c.cfg.Seeds)))
	var lastErr error
	for i := 0; i < len(c.cfg.Seeds); i++ {
		seed := c.cfg.Seeds[(off+i)%len(c.cfg.Seeds)]
		cctx, release := deadline.Bound(ctx, c.cfg.CallTimeout)
		msg, err := c.net.Call(cctx, c.cfg.Self, seed, MapQuery{HaveVersion: have})
		release()
		if err != nil {
			lastErr = err
			continue
		}
		rep, ok := msg.(MapReply)
		if !ok {
			lastErr = fmt.Errorf("capi: unexpected MapQuery reply %T", msg)
			continue
		}
		if rep.NumShards == 0 {
			lastErr = errors.New("capi: daemon served a map with no shards")
			continue
		}
		if cur != nil && rep.Version == cur.Version() {
			return nil
		}
		m, err := placement.New(rep.Nodes, int(rep.NumShards), int(rep.RF), rep.Version)
		if err != nil {
			lastErr = err
			continue
		}
		c.pmap.Store(m)
		c.mapRefresh.Inc()
		return nil
	}
	return fmt.Errorf("capi: shard map refresh failed: %w", lastErr)
}

// Read executes a protocol read of item through an owning daemon. The
// returned error is non-nil only when no daemon produced a definitive
// reply within the operation deadline; otherwise the reply's Status
// carries the disposition (which may be non-OK).
func (c *Client) Read(ctx context.Context, item string) (ReadReply, error) {
	dctx, release := deadline.Bound(ctx, c.cfg.OpTimeout)
	defer release()
	var opCtx context.Context = c.mintTrace(dctx)
	var (
		last     ReadReply
		haveLast bool
		lastErr  error
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := opCtx.Err(); err != nil {
			break
		}
		members, shard, err := c.route(opCtx, item)
		if err != nil {
			lastErr = err
			c.backoff(opCtx, attempt)
			continue
		}
		reply, err := c.readOnce(opCtx, members, shard, attempt, item)
		if err != nil {
			lastErr = err
			c.retries.Inc()
			c.backoff(opCtx, attempt)
			continue
		}
		switch reply.Status {
		case StatusOK:
			return reply, nil
		case StatusWrongShard:
			c.wrongShard.Inc()
			if err := c.Refresh(opCtx); err != nil {
				lastErr = err
			}
			continue // re-route immediately; no backoff, nothing executed
		default:
			last, haveLast = reply, true
			c.retries.Inc()
			c.backoff(opCtx, attempt)
		}
	}
	if haveLast {
		return last, nil
	}
	if lastErr == nil {
		lastErr = opCtx.Err()
	}
	return ReadReply{}, fmt.Errorf("capi: read %q failed: %w", item, lastErr)
}

// Write executes a partial write of item through an owning daemon. Only
// provably side-effect-free dispositions are retried: a conflict abort or
// a wrong-shard refusal. An ambiguous outcome — transport failure,
// StatusUnavailable, StatusError — returns immediately so the caller can
// treat the write as possibly applied; the client never resends a write
// that may have committed.
func (c *Client) Write(ctx context.Context, item string, update replica.Update) (WriteReply, error) {
	dctx, release := deadline.Bound(ctx, c.cfg.OpTimeout)
	defer release()
	var opCtx context.Context = c.mintTrace(dctx)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := opCtx.Err(); err != nil {
			break
		}
		members, _, err := c.route(opCtx, item)
		if err != nil {
			lastErr = err
			c.backoff(opCtx, attempt)
			continue
		}
		// Write affinity: all writes for an item go through the same member
		// (rotating only across retry attempts), so concurrent writers of a
		// hot key share one coordinator — their lock acquisitions serialize
		// locally and group commit can merge them — instead of two
		// coordinators deadlocking on the quorum locks and burning a lease.
		target := members[(itemAffinity(item)+attempt)%len(members)]
		reply, err := c.callWrite(opCtx, target, Write{Item: item, Update: update})
		if err != nil {
			// Ambiguous: the daemon may have executed the write even
			// though our call failed. Never retried.
			return WriteReply{}, fmt.Errorf("capi: write %q: %w: %v", item, ErrAmbiguous, err)
		}
		switch reply.Status {
		case StatusConflict:
			// Clean abort at the coordinator; safe to retry.
			c.retries.Inc()
			c.backoff(opCtx, attempt)
		case StatusWrongShard:
			c.wrongShard.Inc()
			if err := c.Refresh(opCtx); err != nil {
				lastErr = err
			}
		default:
			return reply, nil
		}
	}
	if lastErr == nil {
		lastErr = opCtx.Err()
		if lastErr == nil {
			lastErr = errors.New("attempts exhausted")
		}
	}
	return WriteReply{}, fmt.Errorf("capi: write %q failed: %w", item, lastErr)
}

// CheckEpoch runs one epoch-checking operation on item through an owning
// daemon, with wrong-shard re-routing but no hedging.
func (c *Client) CheckEpoch(ctx context.Context, item string) (CheckReply, error) {
	opCtx, release := deadline.Bound(ctx, c.cfg.OpTimeout)
	defer release()
	var lastErr error
	// One random starting member per call, then the members in turn: a
	// fresh draw per attempt can land on the same stopped daemon every
	// time, while a walk reaches a live one by the second attempt.
	start := int(c.rand() % (1 << 31))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		members, _, err := c.route(opCtx, item)
		if err != nil {
			lastErr = err
			c.backoff(opCtx, attempt)
			continue
		}
		target := members[(start+attempt)%len(members)]
		cctx, release := deadline.Bound(opCtx, c.cfg.CallTimeout)
		msg, err := c.net.Call(cctx, c.cfg.Self, target, CheckEpoch{Item: item})
		release()
		if err != nil {
			lastErr = err
			c.backoff(opCtx, attempt)
			continue
		}
		reply, ok := msg.(CheckReply)
		if !ok {
			return CheckReply{}, fmt.Errorf("capi: unexpected CheckEpoch reply %T", msg)
		}
		if reply.Status == StatusWrongShard {
			c.wrongShard.Inc()
			if err := c.Refresh(opCtx); err != nil {
				lastErr = err
			}
			continue
		}
		return reply, nil
	}
	return CheckReply{}, fmt.Errorf("capi: epoch check %q failed: %w", item, lastErr)
}

// itemAffinity hashes an item name to a stable member offset (FNV-1a),
// giving every client the same per-item write coordinator without
// coordination.
func itemAffinity(item string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(item); i++ {
		h = (h ^ uint64(item[i])) * 1099511628211
	}
	return int(h % uint64(1<<31))
}

// route resolves the item's shard members and shard index, refreshing the
// map first if the client has none yet. The returned slice is freshly
// allocated.
func (c *Client) route(ctx context.Context, item string) ([]nodeset.ID, int, error) {
	m := c.pmap.Load()
	if m == nil {
		if err := c.Refresh(ctx); err != nil {
			return nil, 0, err
		}
		m = c.pmap.Load()
	}
	shard := int(m.ShardOf(item))
	members := m.Members(placement.ShardID(shard)).IDs()
	if len(members) == 0 {
		return nil, 0, fmt.Errorf("capi: shard map v%d has no members for %q", m.Version(), item)
	}
	return members, shard, nil
}

// readOnce performs one read attempt, hedging to an alternate member if
// the primary has not answered within the hedge delay.
func (c *Client) readOnce(ctx context.Context, members []nodeset.ID, shard, attempt int, item string) (ReadReply, error) {
	req := Read{Item: item}
	// Reads share the write-affine member (rotating across retries): a
	// read and a write of the same item then serialize through one
	// coordinator's local locks instead of two coordinators contending for
	// the quorum locks. Cross-member load balance comes from key diversity
	// (itemAffinity spreads items over members); the hedge below is the
	// escape hatch when the affine member is slow.
	rot := itemAffinity(item)
	primary := members[(rot+attempt)%len(members)]
	if !c.cfg.Hedge || len(members) < 2 {
		reply, err := c.callRead(ctx, primary, shard, req)
		if err == nil && reply.Status == StatusOK {
			c.winnerNode.At(int(primary)).Inc()
		}
		return reply, err
	}
	type result struct {
		reply ReadReply
		err   error
		node  nodeset.ID
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // first response wins; cancel releases the loser
	ch := make(chan result, 2)
	launch := func(n nodeset.ID) {
		go func() {
			r, err := c.callRead(cctx, n, shard, req)
			ch <- result{r, err, n}
		}()
	}
	launch(primary)
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	outstanding, hedged := 1, false
	var (
		fallback     ReadReply
		haveFallback bool
		firstErr     error
	)
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil && r.reply.Status == StatusOK {
				if hedged {
					if r.node != primary {
						c.hedgeWon.Inc()
					} else {
						// Primary beat the in-flight hedge; the deferred
						// cancel releases it unanswered.
						c.hedgeCanceled.Inc()
					}
				}
				c.winnerNode.At(int(r.node)).Inc()
				return r.reply, nil
			}
			if r.err == nil && !haveFallback {
				fallback, haveFallback = r.reply, true
			} else if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 && (hedged || !timerPending(timer)) {
				if haveFallback {
					return fallback, nil
				}
				return ReadReply{}, firstErr
			}
			if outstanding == 0 && !hedged {
				// Primary answered badly before the hedge delay elapsed:
				// fire the alternate right away rather than waiting.
				hedged = true
				c.hedgeFired.Inc()
				launch(members[(rot+attempt+1)%len(members)])
				outstanding++
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				c.hedgeFired.Inc()
				launch(members[(rot+attempt+1)%len(members)])
				outstanding++
			}
		}
	}
}

// timerPending reports whether t has neither fired nor been stopped.
// Only used on the hedge timer, whose channel is drained exclusively by
// the readOnce select loop.
func timerPending(t *time.Timer) bool {
	select {
	case <-t.C:
		return false
	default:
		return true
	}
}

func (c *Client) callRead(ctx context.Context, node nodeset.ID, shard int, req Read) (ReadReply, error) {
	cctx, release := deadline.Bound(ctx, c.cfg.CallTimeout)
	defer release()
	start := time.Now()
	msg, err := c.net.Call(cctx, c.cfg.Self, node, req)
	if err != nil {
		return ReadReply{}, err
	}
	reply, ok := msg.(ReadReply)
	if !ok {
		return ReadReply{}, fmt.Errorf("capi: unexpected Read reply %T", msg)
	}
	if reply.Status == StatusOK {
		d := time.Since(start)
		c.readLat.RecordDuration(d)
		c.routeLat.At(shard).RecordDuration(d)
	}
	return reply, nil
}

func (c *Client) callWrite(ctx context.Context, node nodeset.ID, req Write) (WriteReply, error) {
	cctx, release := deadline.Bound(ctx, c.cfg.CallTimeout)
	defer release()
	msg, err := c.net.Call(cctx, c.cfg.Self, node, req)
	if err != nil {
		return WriteReply{}, err
	}
	reply, ok := msg.(WriteReply)
	if !ok {
		return WriteReply{}, fmt.Errorf("capi: unexpected Write reply %T", msg)
	}
	return reply, nil
}

// hedgeDelay derives the hedge trigger from the observed read-attempt
// latency distribution: the p99, capped at 8x the p50, clamped to
// [hedgeMin, hedgeMax]. The p50 cap is what makes hedging effective when
// a degraded member slows a large share of reads — there the slow mode IS
// the p99, so a pure p99 delay would only ever fire after the slow reply
// had already arrived. In a healthy cluster p99 stays within a small
// multiple of p50 and the cap is inert; when the tail detaches from the
// median (p99 >> 8x p50), something is pathologically slow and the hedge
// fires early enough to win. The quantiles are recomputed every 128 reads
// (a 40-bucket scan) and cached; until 64 observations exist the delay
// sits at hedgeMax so cold starts do not hedge on noise.
func (c *Client) hedgeDelay() time.Duration {
	if n := c.hedgeTick.Add(1); n&127 == 1 || c.hedgeCache.Load() == 0 {
		d := hedgeMax
		if snap := c.readLat.Snapshot(); snap.Count >= 64 {
			d = time.Duration(snap.Quantile(0.99))
			if cap := 8 * time.Duration(snap.Quantile(0.50)); d > cap {
				d = cap
			}
			d = min(max(d, hedgeMin), hedgeMax)
		}
		c.hedgeCache.Store(int64(d))
	}
	return time.Duration(c.hedgeCache.Load())
}

// backoff sleeps for the attempt's jittered exponential backoff, or until
// ctx expires, whichever is first.
func (c *Client) backoff(ctx context.Context, attempt int) {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	// Full jitter over [d/2, d]: decorrelates clients that failed together.
	d = d/2 + time.Duration(c.rand()%uint64(d/2+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// rand draws from the client's splitmix64 stream.
func (c *Client) rand() uint64 {
	x := c.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
