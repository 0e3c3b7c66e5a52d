// Package expose renders obs registries for humans and scrapers. It is the
// exposition half of the observability layer: the obs package records
// (allocation-free, data-plane), this package formats (fmt/encoding/net,
// cold path only). Nothing here is called while an operation is in flight.
package expose

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"coterie/internal/obs"
)

// WritePrometheus renders a snapshot of r in the Prometheus text exposition
// format (version 0.0.4). Counter vectors become one series per index with
// an `index` label; histograms become the conventional `_bucket`/`_sum`/
// `_count` series with cumulative `le` labels.
func WritePrometheus(w io.Writer, r *obs.Registry) error {
	s := r.Snapshot()
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, v := range s.Vecs {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", v.Name); err != nil {
			return err
		}
		for i, val := range v.Values {
			if _, err := fmt.Fprintf(w, "%s{index=\"%d\"} %d\n", v.Name, i, val); err != nil {
				return err
			}
		}
	}
	for _, v := range s.GaugeVecs {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", v.Name); err != nil {
			return err
		}
		for i, val := range v.Values {
			if _, err := fmt.Fprintf(w, "%s{index=\"%d\"} %d\n", v.Name, i, val); err != nil {
				return err
			}
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
			return err
		}
		if err := writePromHist(w, h.Name, "", h.Hist); err != nil {
			return err
		}
	}
	for _, v := range s.HistVecs {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", v.Name); err != nil {
			return err
		}
		for i, hs := range v.Hists {
			if err := writePromHist(w, v.Name, fmt.Sprintf("index=\"%d\",", i), hs); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist renders one histogram's series; labels is either empty or
// a `key="value",` prefix merged into each series' label set.
func writePromHist(w io.Writer, name, labels string, hist obs.HistogramSnapshot) error {
	cum := uint64(0)
	for i, n := range hist.Buckets {
		if n == 0 && i != obs.NumBuckets-1 {
			continue
		}
		cum += n
		le := "+Inf"
		if i < obs.NumBuckets-1 {
			le = fmt.Sprintf("%d", obs.BucketUpper(i))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, labels, le, cum); err != nil {
			return err
		}
	}
	// The +Inf bucket must equal the total count even if the last
	// fixed bucket was empty and skipped above.
	if cum != hist.Count {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, hist.Count); err != nil {
			return err
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, suffix, hist.Sum, name, suffix, hist.Count); err != nil {
		return err
	}
	// Interpolated tail quantiles as a comment line: scrapers ignore
	// comments (quantile series belong to summaries, not histograms),
	// but a human reading the text exposition gets the tail at a
	// glance — p999 included, the bench's first-class tail axis.
	if hist.Count > 0 {
		if _, err := fmt.Fprintf(w, "# %s%s p50=%d p99=%d p999=%d\n",
			name, suffix, hist.Quantile(0.5), hist.Quantile(0.99), hist.Quantile(0.999)); err != nil {
			return err
		}
	}
	return nil
}

// jsonTrace is the JSON shape of one flight trace. Trace and span IDs are
// rendered as fixed-width hex strings rather than JSON numbers: they are
// full 64-bit identifiers, and many JSON consumers silently round integers
// above 2^53.
type jsonTrace struct {
	Seq         uint64      `json:"seq"`
	Kind        string      `json:"kind"`
	Coordinator int         `json:"coordinator"`
	OpSeq       uint64      `json:"op_seq"`
	Item        string      `json:"item,omitempty"`
	TraceID     string      `json:"trace_id,omitempty"`
	ParentSpan  string      `json:"parent_span,omitempty"`
	Start       time.Time   `json:"start"`
	ElapsedNS   int64       `json:"elapsed_ns"`
	Outcome     string      `json:"outcome"`
	Version     uint64      `json:"version"`
	Dropped     int32       `json:"dropped_events,omitempty"`
	Events      []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Kind    string `json:"kind"`
	Phase   string `json:"phase,omitempty"`
	WhenNS  int64  `json:"when_ns"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	N       int32  `json:"n,omitempty"`
	A       uint64 `json:"a,omitempty"`
	B       uint64 `json:"b,omitempty"`
	Nodes   []int  `json:"nodes,omitempty"`
	Lossy   bool   `json:"nodes_truncated,omitempty"`
	Meaning string `json:"meaning,omitempty"`
}

// jsonSnapshot is the JSON shape of a full registry snapshot.
type jsonSnapshot struct {
	Counters   map[string]int64      `json:"counters"`
	Gauges     map[string]int64      `json:"gauges"`
	Vecs       map[string][]uint64   `json:"vectors"`
	GaugeVecs  map[string][]int64    `json:"gauge_vectors,omitempty"`
	Histograms map[string]jsonHist   `json:"histograms"`
	HistVecs   map[string][]jsonHist `json:"histogram_vectors,omitempty"`
	Traces     []jsonTrace           `json:"traces,omitempty"`
}

type jsonHist struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     uint64            `json:"p50"`
	P99     uint64            `json:"p99"`
	P999    uint64            `json:"p999"`
	Buckets map[string]uint64 `json:"buckets"`
}

// WriteJSON renders a snapshot of r as indented JSON, including flight
// traces when a recorder is attached.
func WriteJSON(w io.Writer, r *obs.Registry) error {
	s := r.Snapshot()
	out := jsonSnapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Vecs:       make(map[string][]uint64, len(s.Vecs)),
		Histograms: make(map[string]jsonHist, len(s.Histograms)),
	}
	for _, c := range s.Counters {
		out.Counters[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		out.Gauges[g.Name] = g.Value
	}
	for _, v := range s.Vecs {
		out.Vecs[v.Name] = v.Values
	}
	if len(s.GaugeVecs) > 0 {
		out.GaugeVecs = make(map[string][]int64, len(s.GaugeVecs))
		for _, v := range s.GaugeVecs {
			out.GaugeVecs[v.Name] = v.Values
		}
	}
	for _, h := range s.Histograms {
		out.Histograms[h.Name] = histJSON(h.Hist)
	}
	if len(s.HistVecs) > 0 {
		out.HistVecs = make(map[string][]jsonHist, len(s.HistVecs))
		for _, v := range s.HistVecs {
			hists := make([]jsonHist, len(v.Hists))
			for i, hs := range v.Hists {
				hists[i] = histJSON(hs)
			}
			out.HistVecs[v.Name] = hists
		}
	}
	for i := range s.Traces {
		out.Traces = append(out.Traces, traceJSON(&s.Traces[i]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// histJSON converts one histogram snapshot to its JSON shape. Bucket keys
// are `le_<upper>` with zero buckets elided; the aggregator reconstructs
// the fixed bucket layout from the uppers via obs.BucketUpper.
func histJSON(h obs.HistogramSnapshot) jsonHist {
	jh := jsonHist{
		Count:   h.Count,
		Sum:     h.Sum,
		Mean:    h.Mean(),
		P50:     h.Quantile(0.5),
		P99:     h.Quantile(0.99),
		P999:    h.Quantile(0.999),
		Buckets: make(map[string]uint64),
	}
	for i, n := range h.Buckets {
		if n != 0 {
			jh.Buckets[fmt.Sprintf("le_%d", obs.BucketUpper(i))] = n
		}
	}
	return jh
}

func traceJSON(t *obs.Trace) jsonTrace {
	jt := jsonTrace{
		Seq:         t.Seq,
		Kind:        kindName(t.Kind),
		Coordinator: int(t.Coordinator),
		OpSeq:       t.OpSeq,
		Item:        t.Item,
		Start:       t.Start,
		ElapsedNS:   int64(t.Elapsed),
		Outcome:     OutcomeName(t.Outcome),
		Version:     t.Version,
		Dropped:     t.Dropped,
	}
	if t.TraceID != 0 {
		jt.TraceID = FormatTraceID(t.TraceID)
		jt.ParentSpan = FormatTraceID(t.ParentSpan)
	}
	for _, e := range t.EventsSlice() {
		je := jsonEvent{
			Kind:    eventName(e.Kind),
			WhenNS:  int64(e.When),
			DurNS:   int64(e.Dur),
			N:       e.N,
			A:       e.A,
			B:       e.B,
			Meaning: eventMeaning(e),
		}
		if e.Phase != obs.PhaseNone {
			je.Phase = phaseName(e.Phase)
		}
		if hasNodes(e.Kind) {
			je.Nodes = maskIDs(e.Nodes)
			je.Lossy = e.Nodes.Truncated
		}
		jt.Events = append(jt.Events, je)
	}
	return jt
}

// Handler returns an HTTP handler serving r: Prometheus text at the
// registered path by default, JSON with `?format=json`, and the flight
// traces alone (human-readable) with `?format=traces`.
func Handler(r *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSON(w, r)
		case "traces":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, t := range r.Snapshot().Traces {
				_, _ = io.WriteString(w, FormatTrace(&t))
			}
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = WritePrometheus(w, r)
		}
	})
}

// TracesHandler returns an HTTP handler serving only the flight traces of
// r — the daemon's /traces endpoint. Human-readable text by default, JSON
// array with `?format=json`; `?trace=<hex id>` restricts either format to
// the spans of one distributed trace.
func TracesHandler(r *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var want uint64
		if q := req.URL.Query().Get("trace"); q != "" {
			id, err := ParseTraceID(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			want = id
		}
		traces := r.Snapshot().Traces
		kept := traces[:0:0]
		for i := range traces {
			if want == 0 || traces[i].TraceID == want {
				kept = append(kept, traces[i])
			}
		}
		if req.URL.Query().Get("format") == "json" {
			out := make([]jsonTrace, 0, len(kept))
			for i := range kept {
				out = append(out, traceJSON(&kept[i]))
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(out)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i := range kept {
			_, _ = io.WriteString(w, FormatTrace(&kept[i]))
		}
	})
}

// FormatTrace renders one flight trace for humans, one event per line:
//
//	#42 write item=acct-7 coord=n3 outcome=ok version=9 elapsed=1.2ms
//	  +12µs   quorum      3 nodes {0 2 4} grid=3x3
//	  +430µs  phase lock  dur=418µs responders=3 busy=0
//	  +800µs  stale-mark  {2} desired_version=9
func FormatTrace(t *obs.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s item=%s coord=n%d outcome=%s version=%d elapsed=%s",
		t.Seq, kindName(t.Kind), t.Item, int(t.Coordinator), OutcomeName(t.Outcome), t.Version,
		time.Duration(t.Elapsed).Round(time.Microsecond))
	if t.TraceID != 0 {
		fmt.Fprintf(&b, " trace=%s parent=%s", FormatTraceID(t.TraceID), FormatTraceID(t.ParentSpan))
	}
	b.WriteByte('\n')
	for _, e := range t.EventsSlice() {
		fmt.Fprintf(&b, "  +%-9s %s\n", time.Duration(e.When).Round(time.Microsecond), formatEvent(e))
	}
	if t.Dropped > 0 {
		fmt.Fprintf(&b, "  (%d further events dropped)\n", t.Dropped)
	}
	return b.String()
}

func formatEvent(e obs.Event) string {
	switch e.Kind {
	case obs.EvQuorum:
		s := fmt.Sprintf("quorum      %d nodes %s", e.N, nodesString(e.Nodes))
		if e.A > 0 || e.B > 0 {
			s += fmt.Sprintf(" grid=%dx%d", e.A, e.B)
		}
		return s
	case obs.EvPhase:
		return fmt.Sprintf("phase %-6s dur=%s responders=%d busy=%d",
			phaseName(e.Phase), time.Duration(e.Dur).Round(time.Microsecond), e.N, e.A)
	case obs.EvRedirect:
		return fmt.Sprintf("redirect    epoch %d -> %d", e.A, e.B)
	case obs.EvStaleMark:
		return fmt.Sprintf("stale-mark  %s desired_version=%d", nodesString(e.Nodes), e.A)
	case obs.EvLockBusy:
		return fmt.Sprintf("lock-busy   %s", nodesString(e.Nodes))
	case obs.EvHeavy:
		return "heavy       fallback to full poll"
	case obs.EvEpochInstall:
		return fmt.Sprintf("epoch-install #%d members=%s", e.A, nodesString(e.Nodes))
	case obs.EvBatch:
		return fmt.Sprintf("batch       %d writes versions=%d..%d", e.N, e.A, e.B)
	case obs.EvRefused:
		return fmt.Sprintf("refused     by %s, lost to n%d#%d", nodesString(e.Nodes), e.A, e.B)
	default:
		return fmt.Sprintf("event(%d)", e.Kind)
	}
}

// eventMeaning gives the JSON consumer the semantics of A/B/N per kind.
func eventMeaning(e obs.Event) string {
	switch e.Kind {
	case obs.EvQuorum:
		return "n=quorum size, a=grid rows, b=grid cols"
	case obs.EvPhase:
		return "n=responders, a=busy"
	case obs.EvRedirect:
		return "a=cached epoch, b=learned epoch"
	case obs.EvStaleMark:
		return "nodes=stale set, a=desired version"
	case obs.EvLockBusy:
		return "nodes=refused lock"
	case obs.EvEpochInstall:
		return "nodes=new epoch, a=epoch number"
	case obs.EvBatch:
		return "n=batch size, a=first version, b=last version"
	case obs.EvRefused:
		return "nodes=members that refused the lock, a=coordinator and b=sequence number of the older operation"
	default:
		return ""
	}
}

func hasNodes(k obs.EventKind) bool {
	switch k {
	case obs.EvQuorum, obs.EvStaleMark, obs.EvLockBusy, obs.EvEpochInstall, obs.EvRefused:
		return true
	}
	return false
}

func maskIDs(m obs.Mask) []int {
	set := m.Set()
	ids := make([]int, 0, set.Len())
	for _, id := range set.IDs() {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	return ids
}

func nodesString(m obs.Mask) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range maskIDs(m) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	if m.Truncated {
		b.WriteString(" ...")
	}
	b.WriteByte('}')
	return b.String()
}

func eventName(k obs.EventKind) string {
	switch k {
	case obs.EvQuorum:
		return "quorum"
	case obs.EvPhase:
		return "phase"
	case obs.EvRedirect:
		return "redirect"
	case obs.EvStaleMark:
		return "stale-mark"
	case obs.EvLockBusy:
		return "lock-busy"
	case obs.EvHeavy:
		return "heavy"
	case obs.EvEpochInstall:
		return "epoch-install"
	case obs.EvBatch:
		return "batch"
	case obs.EvRefused:
		return "refused"
	default:
		return "unknown"
	}
}

func kindName(k obs.OpKind) string {
	switch k {
	case obs.OpRead:
		return "read"
	case obs.OpWrite:
		return "write"
	case obs.OpEpochChange:
		return "epoch-change"
	case obs.OpServe:
		return "serve"
	default:
		return "unknown"
	}
}

// FormatTraceID renders a 64-bit trace or span ID in the canonical
// fixed-width hex form used across JSON output, /traces queries, and cotop.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the hex form accepted by /traces?trace= and
// cotop -trace: up to 16 hex digits, with or without a 0x prefix.
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("expose: bad trace ID %q", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("expose: bad trace ID %q", s)
	}
	return id, nil
}

// OutcomeName returns the string form of an outcome (also used by loadgen's
// breakdown keys).
func OutcomeName(o obs.Outcome) string {
	switch o {
	case obs.OutcomeOK:
		return "ok"
	case obs.OutcomeNoChange:
		return "no-change"
	case obs.OutcomeUnavailable:
		return "unavailable"
	case obs.OutcomeConflict:
		return "conflict"
	case obs.OutcomeError:
		return "error"
	default:
		return "unknown"
	}
}

func phaseName(p obs.Phase) string {
	switch p {
	case obs.PhasePoll:
		return "poll"
	case obs.PhaseLock:
		return "lock"
	case obs.PhasePrepare:
		return "prepare"
	case obs.PhaseCommit:
		return "commit"
	case obs.PhaseFetch:
		return "fetch"
	default:
		return "none"
	}
}
