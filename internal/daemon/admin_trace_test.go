package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

// startTracedCluster brings up n sharded daemons with the full
// observability plane: metrics registry, flight recorder, and an admin
// endpoint on an ephemeral port per daemon.
func startTracedCluster(t *testing.T, n, shards, rf int) (map[nodeset.ID]string, []*Daemon, []string) {
	t.Helper()
	book := freeAddrs(t, n)
	daemons := make([]*Daemon, 0, n)
	admins := make([]string, 0, n)
	for i := 0; i < n; i++ {
		d, err := Start(Config{
			Self:        nodeset.ID(i),
			Addrs:       book,
			ItemSize:    32,
			CallTimeout: 2 * time.Second,
			Shards:      shards,
			RF:          rf,
			Obs:         true,
			AdminAddr:   "127.0.0.1:0",
		})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons = append(daemons, d)
		t.Cleanup(d.Close)
		if d.AdminAddr() == "" {
			t.Fatalf("daemon %d has no admin address", i)
		}
		admins = append(admins, d.AdminAddr())
	}
	return book, daemons, admins
}

// TestClusterTraceEndToEnd is the acceptance test for the observability
// plane: a 4-node TCP cluster with per-daemon admin endpoints, a client
// sampling every operation into a distributed trace, and the aggregator
// assembling a cross-node timeline. For at least one sampled write the
// timeline must contain the coordinator's span plus correlated serve
// spans from two or more distinct replica nodes — including writes that
// took the speculative-prepare fast path.
func TestClusterTraceEndToEnd(t *testing.T) {
	book, daemons, admins := startTracedCluster(t, 4, 8, 3)
	cli := tcpnet.New(book)
	defer cli.Close()
	client, err := capi.NewClient(cli, capi.ClientConfig{
		Self:        nodeset.ID(100),
		Seeds:       []nodeset.ID{0, 1, 2, 3},
		TraceSample: 1, // every operation carries a sampled trace context
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Repeated writes to one item drive the speculative-prepare fast path
	// (the coordinator reuses its held lock across consecutive writes);
	// writes to distinct items exercise the full prepare round.
	for i := 0; i < 8; i++ {
		if _, err := client.Write(ctx, "hot-item", replica.Update{Offset: 0, Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		item := fmt.Sprintf("cold-%d", i)
		if _, err := client.Write(ctx, item, replica.Update{Offset: 0, Data: []byte{1}}); err != nil {
			t.Fatalf("write %s: %v", item, err)
		}
		if _, err := client.Read(ctx, item); err != nil {
			t.Fatalf("read %s: %v", item, err)
		}
	}
	if stats := client.Stats(); stats.TracesSampled == 0 {
		t.Fatal("client sampled no traces despite TraceSample=1")
	}

	cs := capi.ScrapeCluster(ctx, nil, admins)
	if len(cs.Errs) != 0 {
		t.Fatalf("scrape errors: %v", cs.Errs)
	}
	if len(cs.Nodes) != len(daemons) {
		t.Fatalf("scraped %d of %d daemons", len(cs.Nodes), len(daemons))
	}
	if hits := cs.Counters["core_spec_prepare_hit_total"]; hits == 0 {
		t.Fatal("no speculative-prepare hits under tracing — the traced fast path regressed")
	}

	// Walk recent trace IDs and find a write whose timeline spans the
	// coordinator plus at least two distinct replica nodes.
	var found bool
	for _, id := range cs.TraceIDs() {
		spans, err := cs.Timeline(id)
		if err != nil {
			t.Fatalf("timeline %s: %v", id, err)
		}
		var coordNode nodeset.ID = -1
		serveNodes := map[nodeset.ID]bool{}
		for _, s := range spans {
			switch s.Kind {
			case "write":
				coordNode = nodeset.ID(s.Node)
			case "serve":
				serveNodes[nodeset.ID(s.Node)] = true
			}
		}
		if coordNode < 0 || len(serveNodes) < 2 {
			continue
		}
		// Every span in the timeline shares one trace ID by construction
		// of Timeline; check the serve spans name the coordinator's op.
		for _, s := range spans {
			if s.TraceID != spans[0].TraceID {
				t.Fatalf("timeline %s mixes trace IDs: %+v", id, spans)
			}
		}
		found = true
		break
	}
	if !found {
		t.Fatalf("no trace correlates a coordinator write with >=2 replica serve spans; trace IDs: %v", cs.TraceIDs())
	}
}

// TestAdminEndpoints exercises every admin route of a live daemon:
// /healthz reports readiness and shard ownership, /metrics serves both
// exposition formats, /traces filters, and /debug/pprof answers.
func TestAdminEndpoints(t *testing.T) {
	_, _, admins := startTracedCluster(t, 2, 4, 2)
	base := "http://" + admins[0]

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Node != 0 {
		t.Fatalf("health = %+v", h)
	}
	if h.NumShards != 4 || len(h.OwnedShards) == 0 {
		t.Fatalf("sharded health = %+v", h)
	}

	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if code, body := get("/metrics?format=json"); code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/metrics?format=json = %d, valid JSON = %v", code, json.Valid(body))
	}
	if code, _ := get("/traces"); code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	if code, _ := get("/traces?trace=zzz"); code != http.StatusBadRequest {
		t.Fatalf("/traces?trace=zzz = %d, want 400", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
