package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"

	"coterie/internal/obs"
	"coterie/internal/obs/expose"
)

// Health is the JSON body served at /healthz: enough for an operator (or
// loadgen's readiness poll, or cotop's cluster view) to tell what this
// process is, whether it is recovering, and which slice of the keyspace it
// owns. A daemon that answers at all is serving traffic — the transport
// listener starts before the admin listener — so any 200 means ready.
type Health struct {
	Status     string `json:"status"` // always "ok" when served
	Node       int    `json:"node"`
	Recovering bool   `json:"recovering"`

	// The map this daemon serves and its slice of it.
	MapVersion  uint64 `json:"map_version"`
	NumShards   int    `json:"num_shards"`
	RF          int    `json:"rf"`
	OwnedShards []int  `json:"owned_shards,omitempty"`
	LiveCoords  int    `json:"live_coordinators"`
}

// Health reports the daemon's current health/ownership snapshot — the same
// data /healthz serves, for in-process harnesses.
func (d *Daemon) Health() Health {
	h := Health{
		Status:     "ok",
		Node:       int(d.cfg.Self),
		Recovering: d.cfg.Recovering,
		MapVersion: d.pmap.Version(),
		NumShards:  d.pmap.NumShards(),
		RF:         d.pmap.RF(),
		LiveCoords: d.LiveCoordinators(),
	}
	for _, s := range d.pmap.OwnedShards(d.cfg.Self) {
		h.OwnedShards = append(h.OwnedShards, int(s))
	}
	sort.Ints(h.OwnedShards)
	return h
}

// AdminAddr returns the admin listener's bound address ("" when disabled).
// With Config.AdminAddr ":0" this is how the spawner learns the real port.
func (d *Daemon) AdminAddr() string {
	if d.aln == nil {
		return ""
	}
	return d.aln.Addr().String()
}

// AdminMux assembles the admin-plane routes over this daemon's registry.
// Split from startAdmin so tests and embedding harnesses can serve the
// exact production surface on a listener they control.
func (d *Daemon) AdminMux() *http.ServeMux {
	mux := PprofMux()
	// process_heap_bytes is sampled when somebody asks, not kept current:
	// bytes in live and not yet swept heap objects (runtime.MemStats'
	// HeapAlloc), which cotop sets against replica_payload_bytes. It is the
	// process's figure: daemons sharing a process (tests) each report all of it.
	heap, serve := d.Reg.Gauge("process_heap_bytes"), expose.Handler(d.Reg)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			heap.Set(int64(sample[0].Value.Uint64()))
		}
		serve.ServeHTTP(w, r)
	})
	mux.Handle("/traces", expose.TracesHandler(d.Reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d.Health())
	})
	return mux
}

// startAdmin binds and serves the admin plane. With a registry, sampled
// lock-contention accounting is switched on so /debug/pprof/mutex carries
// data; the rate keeps steady-state overhead negligible.
func (d *Daemon) startAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: admin listener: %w", err)
	}
	if d.Reg != obs.Nop {
		runtime.SetMutexProfileFraction(100)
	}
	d.aln = ln
	d.admin = &http.Server{Handler: d.AdminMux()}
	go func() { _ = d.admin.Serve(ln) }()
	return nil
}
