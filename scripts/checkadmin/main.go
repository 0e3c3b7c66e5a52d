// Command checkadmin smokes the admin plane end to end, in-process and in
// seconds: it starts a 3-daemon sharded cluster with admin endpoints on
// ephemeral ports, drives a handful of fully-sampled operations through
// the smart client, then proves every admin route answers on every daemon
// and that the aggregator can assemble a cross-node timeline for at least
// one of the traces it just created.
//
// Usage: go run ./scripts/checkadmin
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"coterie/internal/capi"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "checkadmin: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("checkadmin: ok")
}

func run() error {
	const n = 3
	// Reserve ephemeral data-plane ports the same way the daemon tests do.
	book := make(map[nodeset.ID]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		book[nodeset.ID(i)] = l.Addr().String()
		l.Close()
	}

	daemons := make([]*daemon.Daemon, 0, n)
	admins := make([]string, 0, n)
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	for i := 0; i < n; i++ {
		d, err := daemon.Start(daemon.Config{
			Self:        nodeset.ID(i),
			Addrs:       book,
			ItemSize:    64,
			CallTimeout: 2 * time.Second,
			Shards:      4,
			RF:          3,
			Obs:         true,
			AdminAddr:   "127.0.0.1:0",
		})
		if err != nil {
			return fmt.Errorf("daemon %d: %w", i, err)
		}
		daemons = append(daemons, d)
		if d.AdminAddr() == "" {
			return fmt.Errorf("daemon %d: admin plane did not bind", i)
		}
		admins = append(admins, d.AdminAddr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	cli := tcpnet.New(book)
	defer cli.Close()
	client, err := capi.NewClient(cli, capi.ClientConfig{
		Self:        nodeset.ID(100),
		Seeds:       []nodeset.ID{0, 1, 2},
		TraceSample: 1,
	})
	if err != nil {
		return err
	}
	if err := client.Refresh(ctx); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		item := fmt.Sprintf("smoke-%d", i%2)
		if _, err := client.Write(ctx, item, replica.Update{Offset: 0, Data: []byte{byte(i)}}); err != nil {
			return fmt.Errorf("write %s: %w", item, err)
		}
		if _, err := client.Read(ctx, item); err != nil {
			return fmt.Errorf("read %s: %w", item, err)
		}
	}

	// Every admin route on every daemon.
	routes := []struct {
		path string
		want func(string) error
	}{
		{"/healthz", contains(`"status": "ok"`)},
		{"/metrics", contains("# TYPE")},
		{"/metrics?format=json", contains(`"counters"`)},
		{"/traces", nil},
		{"/debug/pprof/cmdline", nil},
	}
	for i, addr := range admins {
		for _, rt := range routes {
			body, err := get("http://" + addr + rt.path)
			if err != nil {
				return fmt.Errorf("daemon %d %s: %w", i, rt.path, err)
			}
			if rt.want != nil {
				if err := rt.want(body); err != nil {
					return fmt.Errorf("daemon %d %s: %w", i, rt.path, err)
				}
			}
		}
		fmt.Printf("daemon %d admin %s: all routes ok\n", i, addr)
	}

	// The aggregator sees the cluster and can assemble a timeline.
	cs := capi.ScrapeCluster(ctx, nil, admins)
	if len(cs.Errs) != 0 {
		return fmt.Errorf("scrape errors: %v", cs.Errs)
	}
	ids := cs.TraceIDs()
	if len(ids) == 0 {
		return fmt.Errorf("no traces scraped despite TraceSample=1")
	}
	var best int
	for _, id := range ids {
		spans, err := cs.Timeline(id)
		if err != nil {
			return err
		}
		nodes := map[int]bool{}
		for _, s := range spans {
			nodes[s.Node] = true
		}
		if len(nodes) > best {
			best = len(nodes)
		}
	}
	if best < 2 {
		return fmt.Errorf("no trace spans more than one node (best %d)", best)
	}
	fmt.Printf("aggregator: %d traces, widest timeline spans %d nodes\n", len(ids), best)
	return nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, sb.String())
	}
	return sb.String(), nil
}

func contains(substr string) func(string) error {
	return func(body string) error {
		if !strings.Contains(body, substr) {
			return fmt.Errorf("body missing %q", substr)
		}
		return nil
	}
}
