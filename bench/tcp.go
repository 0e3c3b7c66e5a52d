package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/transport/tcpnet"
	"coterie/internal/workload"
)

// tcpSpec describes the sharded workload on loopback TCP.
type tcpSpec struct {
	daemons, shards, rf int
	keys, keySize       int
	maxWrite            int
	readFrac            float64
	clients             int
}

// firstPort is where the search for the daemons' listen ports begins.
const firstPort = 21000

// tcpCluster is the full data path: in-process daemons on loopback TCP,
// one tcpnet client network, one capi smart client per client goroutine.
type tcpCluster struct {
	spec    tcpSpec
	book    map[nodeset.ID]string
	daemons []*daemon.Daemon
	cliReg  *obs.Registry
	cliNet  *tcpnet.Network
	clients []*capi.Client
	names   []string            // [key]
	recs    []*onecopy.Recorder // [key]
	tr      *tracer
}

// newTCPCluster starts the daemons and writes every key once, so every
// replica and every coordinator exists before the warm-up begins.
func newTCPCluster(spec tcpSpec, tr *tracer) (*tcpCluster, error) {
	cl := &tcpCluster{spec: spec, book: make(map[nodeset.ID]string, spec.daemons), cliReg: obs.New(), tr: tr}
	// The daemons listen below the kernel's range for outgoing connections
	// (32768–60999 unless configured otherwise). A port reserved by
	// listening on :0 and closing comes from that range, so the kernel may
	// hand it to the next outgoing connection before the daemon listens —
	// and a run sets the cluster up several times over, on ports that were
	// just closed: one run in forty died with "address already in use".
	for i, port := 0, firstPort; i < spec.daemons; port++ {
		if port == firstPort+1000 {
			return nil, fmt.Errorf("no %d free loopback ports in %d–%d", spec.daemons, firstPort, port)
		}
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
		if err != nil {
			continue
		}
		cl.book[nodeset.ID(i)] = l.Addr().String()
		l.Close()
		i++
	}
	seeds := make([]nodeset.ID, spec.daemons)
	for i := range seeds {
		seeds[i] = nodeset.ID(i)
		d, err := daemon.Start(daemon.Config{
			Self: nodeset.ID(i), Addrs: cl.book, ItemSize: spec.keySize,
			Pipeline: true, Shards: spec.shards, RF: spec.rf, Obs: true,
		})
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("daemon %d: %w", i, err)
		}
		cl.daemons = append(cl.daemons, d)
	}

	cl.cliNet = tcpnet.New(cl.book, tcpnet.WithPoolSize(1), tcpnet.WithObs(cl.cliReg))
	var cnet transport.Net = cl.cliNet
	if tr != nil {
		cnet = &tracedNet{inner: cl.cliNet, t: tr, layer: "tcpnet"}
	}
	ctx := context.Background()
	for c := 0; c < spec.clients; c++ {
		client, err := capi.NewClient(cnet, capi.ClientConfig{Self: nodeset.ID(100 + c), Seeds: seeds})
		if err == nil {
			err = client.Refresh(ctx)
		}
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.clients = append(cl.clients, client)
	}

	initial := make([]byte, spec.keySize)
	for k := 0; k < spec.keys; k++ {
		cl.names = append(cl.names, "k"+strconv.Itoa(k))
		cl.recs = append(cl.recs, onecopy.NewRecorder(initial))
	}
	// Each client pre-touches the keys it will own, in parallel.
	errs := make([]error, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < spec.keys; k += spec.clients {
				if err := cl.attempt(ctx, c, k, false, replica.Update{Offset: 0, Data: []byte{'0'}}, nil); err != nil {
					errs[c] = fmt.Errorf("pre-touch write of %s: %w", cl.names[k], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

func (cl *tcpCluster) close() {
	if cl.cliNet != nil {
		cl.cliNet.Close()
	}
	for _, d := range cl.daemons {
		d.Close()
	}
}

// statusErr turns a non-OK reply into the error the coordinator had, so
// one classifier serves both transports.
func statusErr(s capi.Status, detail string) error {
	switch s {
	case capi.StatusOK:
		return nil
	case capi.StatusUnavailable:
		return fmt.Errorf("%w: %s", core.ErrUnavailable, detail)
	case capi.StatusConflict:
		return fmt.Errorf("%w: %s", core.ErrConflict, detail)
	default:
		return fmt.Errorf("capi status %v: %s", s, detail)
	}
}

// attempt runs one operation on key through client c's smart client
// (which does its own routing and retries) and records it in the key's
// history, with the same ambiguity rule as the sim path.
func (cl *tcpCluster) attempt(ctx context.Context, c, key int, isRead bool, u replica.Update, acc *traceAcc) error {
	client, name, rec := cl.clients[c], cl.names[key], cl.recs[key]
	start := rec.Begin()
	if isRead {
		var reply capi.ReadReply
		err := cl.tr.root(ctx, "capi.Client.Read", true, acc, func(ctx context.Context) (err error) {
			if reply, err = client.Read(ctx, name); err == nil {
				err = statusErr(reply.Status, reply.Detail)
			}
			return err
		})
		if err == nil {
			rec.EndRead(start, reply.Version, reply.Value)
		}
		return err
	}
	var reply capi.WriteReply
	err := cl.tr.root(ctx, "capi.Client.Write", false, acc, func(ctx context.Context) (err error) {
		if reply, err = client.Write(ctx, name, u); err == nil {
			err = statusErr(reply.Status, reply.Detail)
		}
		return err
	})
	switch {
	case err == nil:
		rec.EndWrite(start, reply.Version, u)
	case !errors.Is(err, core.ErrConflict):
		rec.EndMaybeWrite(start, u)
	}
	return err
}

// tcpClient is one closed-loop caller owning the keys ≡ id (mod clients),
// drawn Zipf(0.99): two clients never touch the same key, so the workload
// measures the data path and not the hot-item collapse sim_hot covers.
type tcpClient struct {
	cl   *tcpCluster
	id   int
	gen  *workload.Generator
	zipf *workload.Zipf
	acc  traceAcc
}

func (cl *tcpCluster) newClients(seed int64) ([]client, error) {
	gens, zipfs, err := newStreams(workload.Config{
		Members: nodeset.Range(0, nodeset.ID(cl.spec.daemons)), ReadFraction: cl.spec.readFrac,
		ItemSize: cl.spec.keySize, MaxWriteLen: cl.spec.maxWrite, Seed: seed,
	}, cl.spec.keys/cl.spec.clients, cl.spec.clients)
	if err != nil {
		return nil, err
	}
	out := make([]client, cl.spec.clients)
	for c := range out {
		out[c] = &tcpClient{cl: cl, id: c, gen: gens[c], zipf: zipfs[c]}
	}
	return out, nil
}

// key maps the client's Zipf rank onto its own residue class of keys.
func (c *tcpClient) key() int { return int(c.zipf.Next())*c.cl.spec.clients + c.id }

func (c *tcpClient) traced() *traceAcc { return &c.acc }

func (c *tcpClient) step(ctx context.Context, st *clientStats) (bool, time.Duration, error) {
	op := c.gen.Next() // the generated coordinator is unused: capi routes
	key, isRead := c.key(), op.Kind == workload.OpRead
	began := time.Now()
	err := c.cl.attempt(ctx, c.id, key, isRead, op.Update, &c.acc)
	if err != nil {
		st.errs[classify(err)]++
	}
	return isRead, time.Since(began), err
}

// verify reads every key back and checks every key's history.
func (cl *tcpCluster) verify(ctx context.Context) (int, error) {
	return verifyHistories(cl.recs, cl.names, cl.spec.keySize, func(key int) error {
		return cl.attempt(ctx, key%cl.spec.clients, key, true, replica.Update{}, nil)
	})
}

func (cl *tcpCluster) forget() { forgetHistories(cl.recs) }

// epochStats: this workload injects no faults while it is measured.
func (cl *tcpCluster) epochStats() ([]time.Duration, int) { return nil, 0 }

// counters sums every daemon's registry, the client transport's and the
// smart clients' own counters.
func (cl *tcpCluster) counters() counters {
	c := counters{}
	for _, d := range cl.daemons {
		c.addRegistry(d.Reg)
	}
	c.addRegistry(cl.cliReg)
	for _, client := range cl.clients {
		s := client.Stats()
		c["capi_retry_total"] += float64(s.Retries)
		c["capi_wrong_shard_total"] += float64(s.WrongShard)
		c["capi_map_refresh_total"] += float64(s.MapRefresh)
	}
	return c
}
