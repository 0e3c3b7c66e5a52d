// Command availability regenerates the paper's Table 1 and related
// availability/quorum-size comparisons.
//
// Usage:
//
//	availability                 # Table 1 as in the paper, then protocol-exact
//	availability -lambda 1 -mu 9 # different failure/repair rates
//	availability -n 9,12,15      # different replica counts
//	availability -quorums        # quorum sizes per protocol (Section 1)
//	availability -voting         # dynamic voting / majority comparison
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/nodeset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("availability: ")
	var (
		lambda   = flag.Float64("lambda", 1, "per-node failure rate")
		mu       = flag.Float64("mu", 19, "per-node repair rate")
		nodesArg = flag.String("n", "9,12,15,16,20,24,30", "comma-separated replica counts")
		quorums  = flag.Bool("quorums", false, "print quorum sizes per protocol instead")
		voting   = flag.Bool("voting", false, "print the voting-protocol comparison instead")
		sweep    = flag.Bool("sweep", false, "print an unavailability-vs-reliability sweep instead")
		reads    = flag.Bool("reads", false, "print dynamic-grid read vs write unavailability instead")
		ratio    = flag.Bool("ratio", false, "print the grid aspect-parameter (k) tradeoff instead")
		outage   = flag.Bool("outage", false, "print mean outage durations alongside unavailability instead")
	)
	flag.Parse()

	counts, err := parseCounts(*nodesArg)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *quorums:
		printQuorumSizes(counts)
	case *voting:
		printVotingComparison(counts, *lambda, *mu)
	case *sweep:
		printSweep(counts[0])
	case *reads:
		printReads(counts, *lambda, *mu)
	case *ratio:
		printRatio(counts[0], *mu/(*lambda+*mu))
	case *outage:
		printOutage(counts, *lambda, *mu)
	default:
		printTable1(counts, *lambda, *mu)
	}
}

func printSweep(n int) {
	points, err := markov.Sweep(n, []float64{1, 3, 9, 19, 49, 99, 199})
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.WriteString(markov.FormatSweep(n, points))
}

// printOutage shows how often the dynamic grid blocks and for how long at
// a stretch (time unit: mean node up-time, 1/lambda).
func printOutage(counts []int, lambda, mu float64) {
	fmt.Printf("Dynamic grid outages (lambda=%g, mu=%g)\n\n", lambda, mu)
	fmt.Println("N      unavailability  mean-outage   outages-per-lifetime")
	for _, n := range counts {
		m := markov.DynamicGridModel{N: n, Lambda: lambda, Mu: mu}
		u, err := m.Unavailability()
		if err != nil {
			log.Fatal(err)
		}
		d, err := m.MeanOutageDuration()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-15.4g %-13.4g %.4g\n", n, u, d, u/d)
	}
}

func printReads(counts []int, lambda, mu float64) {
	fmt.Printf("Dynamic grid unavailability (lambda=%g, mu=%g): reads survive blocked\n", lambda, mu)
	fmt.Println("epochs that still cover every grid column.")
	fmt.Println()
	fmt.Println("N      write         read")
	for _, n := range counts {
		w, r, err := markov.PaperReadModel(n, lambda, mu).Unavailabilities()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-13.4g %.4g\n", n, w, r)
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad replica count %q: %v", part, err)
		}
		if n < 4 {
			return nil, fmt.Errorf("replica count %d below the dynamic model's minimum of 4", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func printTable1(counts []int, lambda, mu float64) {
	params := markov.Table1Params{NodeCounts: counts, Lambda: lambda, Mu: mu}
	rows, err := markov.Table1(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Write unavailability, p = %.4g (lambda=%g, mu=%g)\n\n", params.P(), lambda, mu)
	os.Stdout.WriteString(markov.FormatTable1(rows))

	rules := []coterie.Rule{coterie.Grid{}, coterie.Majority{}, coterie.Hierarchical{}, coterie.Wheel{}}
	exact, err := markov.ProtocolTable1(params, rules)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("The dynamic protocol as written: write unavailability when each rule's")
	fmt.Println("own write quorums decide every epoch change (Figure 3 assumes a grid")
	fmt.Println("epoch of 4 or more always survives one failure).")
	fmt.Println()
	os.Stdout.WriteString(markov.FormatProtocolTable1(rules, exact))
}

func printQuorumSizes(counts []int) {
	fmt.Println("Quorum sizes (paper, Section 1): grid read = sqrt(N), grid write = 2*sqrt(N)-1,")
	fmt.Println("majority = floor(N/2)+1, HQC ~ N^0.63, wheel = 2, ROWA write = N.")
	fmt.Println()
	fmt.Println("N      grid-read  grid-write  majority  hqc   wheel  rowa-write")
	for _, n := range counts {
		V := nodeset.Range(0, nodeset.ID(n))
		g := coterie.Grid{}
		rq, _ := g.ReadQuorum(V, V, 0)
		wq, _ := g.WriteQuorum(V, V, 0)
		_, maj := coterie.Majority{}.Thresholds(n)
		hq, _ := coterie.Hierarchical{}.ReadQuorum(V, V, 0)
		wh, _ := coterie.Wheel{}.WriteQuorum(V, V, 0)
		fmt.Printf("%-6d %-10d %-11d %-9d %-5d %-6d %d\n", n, rq.Len(), wq.Len(), maj, hq.Len(), wh.Len(), n)
	}
}

// printRatio sweeps the grid aspect parameter k for one N: read quorum
// size against write availability (paper, Section 5, requirement 2).
func printRatio(n int, p float64) {
	fmt.Printf("Grid aspect parameter k (rows/columns), N = %d, p = %.4g\n", n, p)
	fmt.Println("Increasing k: cheaper reads, less available writes (paper, Section 5).")
	fmt.Println()
	fmt.Println("k        shape    read-quorum  write-quorum  write-unavailability")
	V := nodeset.Range(0, nodeset.ID(n))
	for _, k := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		g := coterie.Grid{Ratio: k}
		shape := coterie.DefineGridRatio(n, k)
		rq, ok1 := g.ReadQuorum(V, V, 0)
		wq, ok2 := g.WriteQuorum(V, V, 0)
		if !ok1 || !ok2 {
			log.Fatalf("k=%g: no quorum", k)
		}
		u := markov.StaticGridWriteUnavailability(shape, p, false)
		fmt.Printf("%-8.3g %-8s %-12d %-13d %.4g\n", k, shape, rq.Len(), wq.Len(), u)
	}
}

func printVotingComparison(counts []int, lambda, mu float64) {
	p := mu / (lambda + mu)
	fmt.Printf("Write unavailability comparison, p = %.4g\n\n", p)
	fmt.Println("N      static-grid   static-majority  dyn-voting    dyn-linear    dyn-grid")
	for _, n := range counts {
		_, sg := markov.BestStaticGrid(n, p, true)
		sm := 1 - markov.StaticMajorityWriteAvailability(n, p)
		dv, err := markov.DynamicVotingModel{N: n, Lambda: lambda, Mu: mu}.Unavailability()
		if err != nil {
			log.Fatal(err)
		}
		dl, err := markov.DynamicVotingModel{N: n, Lambda: lambda, Mu: mu, Linear: true}.Unavailability()
		if err != nil {
			log.Fatal(err)
		}
		dg, err := markov.DynamicGridModel{N: n, Lambda: lambda, Mu: mu}.Unavailability()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-13.4g %-16.4g %-13.4g %-13.4g %.4g\n", n, sg, sm, dv, dl, dg)
	}
}
