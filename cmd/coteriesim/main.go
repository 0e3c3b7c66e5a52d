// Command coteriesim runs the discrete-event availability simulator: the
// site model's failure/repair process with epoch checking, under either the
// paper's Figure 3 transition rule or exact evaluation of a coterie rule.
// It prints the mean write and read unavailability over the seeds, and
// the epoch changes, blocks and events summed over them. With -compare and
// -check-every 0 it also prints the exact value the simulation converges
// to: the epoch chain (markov.EpochModel) under the same transition —
// Figure 3's, with the grid's read quorums, for -model paper
// (markov.PaperReadModel), the rule's own quorums for -model protocol.
//
// Usage:
//
//	coteriesim -n 9 -lambda 1 -mu 19 -horizon 1e6
//	coteriesim -n 9 -model protocol -rule grid
//	coteriesim -n 9 -model protocol -rule majority -check-every 5
//	coteriesim -n 9 -seeds 10          # averages over 10 seeds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coteriesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 9, "number of replicas")
		lambda     = fs.Float64("lambda", 1, "per-node failure rate")
		mu         = fs.Float64("mu", 19, "per-node repair rate")
		horizon    = fs.Float64("horizon", 1e6, "simulated time units")
		modelName  = fs.String("model", "paper", `transition model: "paper" (Figure 3) or "protocol" (exact rule)`)
		ruleName   = fs.String("rule", "grid", `coterie rule for -model protocol: grid, grid-strict, majority, hierarchical`)
		checkEvery = fs.Float64("check-every", 0, "epoch-check period (0 = after every event)")
		seeds      = fs.Int("seeds", 1, "number of independent seeds to average")
		compare    = fs.Bool("compare", true, "with -check-every 0, also print the exact chain's value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "coteriesim: "+format+"\n", a...)
		return 1
	}

	cfg := sim.Config{
		N:          *n,
		Lambda:     *lambda,
		Mu:         *mu,
		Horizon:    *horizon,
		CheckEvery: *checkEvery,
	}
	switch *modelName {
	case "paper":
		cfg.Model = sim.ModelPaper
	case "protocol":
		cfg.Model = sim.ModelProtocol
	default:
		return fail("unknown model %q", *modelName)
	}
	switch *ruleName {
	case "grid":
		cfg.Rule = coterie.Grid{}
	case "grid-strict":
		cfg.Rule = coterie.Grid{Strict: true}
	case "majority":
		cfg.Rule = coterie.Majority{}
	case "hierarchical":
		cfg.Rule = coterie.Hierarchical{}
	default:
		return fail("unknown rule %q", *ruleName)
	}
	if *seeds < 1 {
		return fail("-seeds must be at least 1, got %d", *seeds)
	}

	var sumW, sumR float64
	var blocks, changes, events int
	for s := 0; s < *seeds; s++ {
		cfg.Seed = int64(s + 1)
		res, err := sim.Run(cfg)
		if err != nil {
			return fail("%v", err)
		}
		sumW += res.WriteUnavailFrac
		sumR += res.ReadUnavailFrac
		blocks += res.Blocks
		changes += res.EpochChanges
		events += res.Events
	}
	k := float64(*seeds)
	fmt.Fprintf(stdout, "model=%s rule=%s N=%d lambda=%g mu=%g horizon=%g check-every=%g seeds=%d\n",
		*modelName, *ruleName, *n, *lambda, *mu, *horizon, *checkEvery, *seeds)
	fmt.Fprintf(stdout, "write unavailability: %.6g\n", sumW/k)
	fmt.Fprintf(stdout, "read  unavailability: %.6g\n", sumR/k)
	fmt.Fprintf(stdout, "epoch changes: %d   blocks: %d (totals across seeds)\n", changes, blocks)
	fmt.Fprintf(stdout, "events: %d\n", events)

	if *compare && *checkEvery == 0 {
		model := markov.PaperReadModel(*n, *lambda, *mu)
		if cfg.Model == sim.ModelProtocol {
			model = markov.RuleModel(cfg.Rule, *n, *lambda, *mu)
		}
		if w, r, err := model.Unavailabilities(); err != nil {
			fmt.Fprintf(stdout, "exact chain: none (%v)\n", err)
		} else {
			fmt.Fprintf(stdout, "exact chain: write %.6g   read %.6g\n", w, r)
		}
	}
	return 0
}
