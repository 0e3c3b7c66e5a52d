package daemon

import (
	"flag"
	"slices"
	"testing"

	"coterie/internal/nodeset"
)

// TestParseFlagsCapacityAndStrategy pins the weighted-strategy CLI
// surface: -strategy accepts the full core.ParseStrategy vocabulary and
// -capacity parses the id=weight list shared with loadgen.
func TestParseFlagsCapacityAndStrategy(t *testing.T) {
	cfg, err := ParseFlags([]string{
		"-node", "1",
		"-cluster", "0=127.0.0.1:7000,1=127.0.0.1:7001",
		"-strategy", "optimized",
		"-capacity", "0=1.0,1=0.25",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy != "optimized" {
		t.Fatalf("Strategy = %q", cfg.Strategy)
	}
	if len(cfg.Capacities) != 2 || cfg.Capacities[1] != 0.25 {
		t.Fatalf("Capacities = %v", cfg.Capacities)
	}

	if _, err := ParseFlags([]string{
		"-cluster", "0=127.0.0.1:7000", "-capacity", "0=-3",
	}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := ParseFlags([]string{
		"-cluster", "0=127.0.0.1:7000", "-capacity", "x=1",
	}); err == nil {
		t.Fatal("non-numeric node ID accepted")
	}
}

// TestCapacitiesRoundTrip: FormatCapacities output must re-parse to the
// same map (the loadgen spawner relies on this to forward -capacity).
func TestCapacitiesRoundTrip(t *testing.T) {
	caps := map[nodeset.ID]float64{0: 1, 4: 0.25, 8: 2.5}
	s := FormatCapacities(caps)
	got, err := ParseCapacities(s)
	if err != nil {
		t.Fatalf("ParseCapacities(%q): %v", s, err)
	}
	if len(got) != len(caps) {
		t.Fatalf("round trip %q -> %v", s, got)
	}
	for id, w := range caps {
		if got[id] != w {
			t.Fatalf("node %d: %v != %v (via %q)", id, got[id], w, s)
		}
	}
}

// TestDaemonRejectsUnknownStrategy: Start must fail fast on a strategy
// ParseStrategy does not know.
func TestDaemonRejectsUnknownStrategy(t *testing.T) {
	book := freeAddrs(t, 1)
	_, err := Start(Config{
		Self:     0,
		Addrs:    book,
		Strategy: "bogus",
	})
	if err == nil {
		t.Fatal("Start accepted strategy \"bogus\"")
	}
}

// The flags are the daemon's surface: a new one has to show up here.
func TestFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("coteried", flag.ContinueOnError)
	newFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"admin", "call-timeout", "capacity", "cluster", "item-size",
		"map-version", "node", "obs", "recovering", "rf", "shards",
		"slow-read", "strategy",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
