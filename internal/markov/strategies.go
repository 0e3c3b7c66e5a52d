package markov

import (
	"fmt"
	"math/bits"
	"strings"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
)

// StrategyNames lists the quorum-selection strategies the availability
// matrix covers, in presentation order. The names match
// core.ParseStrategy's canonical vocabulary; this package keeps them as
// strings so the analysis layer stays free of protocol dependencies.
func StrategyNames() []string {
	return []string{"hint", "load", "optimized", "read-dominant"}
}

// StrategyWeighted reports whether the named strategy serves from an
// enumerated candidate distribution (the alias-table strategies) rather
// than selecting directly over the full rule.
func StrategyWeighted(strategy string) bool {
	return strategy == "optimized" || strategy == "read-dominant"
}

// StrategyCell is one cell of the rule × strategy availability matrix
// under the site model (each node independently up with probability p).
//
// Read/Write are the rule's exact availabilities — every strategy shares
// them, because any strategy only ever picks valid quorums of the same
// layout and the weighted strategies fall back to the hint path when
// their distribution cannot serve. CandidateRead/CandidateWrite are the
// weighted strategies' distribution-serving availabilities: the
// probability that at least one enumerated candidate quorum survives in
// the up-set, i.e. how often the solved distribution answers without
// falling back. For the non-weighted strategies they equal Read/Write.
type StrategyCell struct {
	Rule           string
	Strategy       string
	Read           float64
	Write          float64
	CandidateRead  float64
	CandidateWrite float64
}

// StrategyAvailability computes one matrix cell for a rule over n nodes.
// n is bounded by EnumerateLimit (the evaluation visits 2^n up-sets).
func StrategyAvailability(rule coterie.Rule, n int, p float64, strategy string) (StrategyCell, error) {
	read, write, err := EnumeratedAvailability(rule, n, p)
	if err != nil {
		return StrategyCell{}, err
	}
	cell := StrategyCell{
		Rule: rule.Name(), Strategy: strategy,
		Read: read, Write: write,
		CandidateRead: read, CandidateWrite: write,
	}
	if !StrategyWeighted(strategy) {
		return cell, nil
	}
	layout := coterie.Compile(rule, nodeset.Range(0, nodeset.ID(n)))
	cr, cw, err := candidateAvailability(layout, n, p)
	if err != nil {
		return StrategyCell{}, err
	}
	cell.CandidateRead, cell.CandidateWrite = cr, cw
	return cell, nil
}

// candidateAvailability is EnumeratedAvailability's counterpart for the
// enumerated candidate lists: the probability mass of up-sets containing
// at least one candidate read (resp. write) quorum. When the enumeration
// is exact the candidates are the rule's minimal quorums and the numbers
// coincide with the rule's; sampling (large layouts) can only lose mass.
func candidateAvailability(layout *coterie.Layout, n int, p float64) (read, write float64, err error) {
	if n < 1 || n > EnumerateLimit {
		return 0, 0, fmt.Errorf("markov: enumeration supports 1..%d nodes, got %d", EnumerateLimit, n)
	}
	if p < 0 || p > 1 {
		return 0, 0, fmt.Errorf("markov: node availability %g outside [0,1]", p)
	}
	// n ≤ 24 keeps every set in its first word, so candidates reduce to
	// plain masks and the per-state check is a handful of AND-compares.
	toMasks := func(sets []nodeset.Set) []uint64 {
		masks := make([]uint64, len(sets))
		for i, s := range sets {
			masks[i] = s.Word(0)
		}
		return masks
	}
	reads := toMasks(layout.EnumerateReadQuorums(0))
	writes := toMasks(layout.EnumerateWriteQuorums(0))
	anyIn := func(masks []uint64, up uint64) bool {
		for _, m := range masks {
			if m&up == m {
				return true
			}
		}
		return false
	}

	stateProb := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		prob := 1.0
		for i := 0; i < k; i++ {
			prob *= p
		}
		for i := k; i < n; i++ {
			prob *= 1 - p
		}
		stateProb[k] = prob
	}

	var up uint64
	upCount := 0
	tally := func() {
		prob := stateProb[upCount]
		if anyIn(reads, up) {
			read += prob
		}
		if anyIn(writes, up) {
			write += prob
		}
	}
	tally()
	for i := uint64(1); i < uint64(1)<<n; i++ {
		bit := uint64(1) << bits.TrailingZeros64(i)
		if up&bit != 0 {
			up &^= bit
			upCount--
		} else {
			up |= bit
			upCount++
		}
		tally()
	}
	return read, write, nil
}

// NamedRule pairs a rule with the label the matrix prints.
type NamedRule struct {
	Name string
	Rule coterie.Rule
}

// StrategyMatrix evaluates every rule × strategy cell at n nodes and
// per-node availability p.
func StrategyMatrix(rules []NamedRule, n int, p float64) ([]StrategyCell, error) {
	cells := make([]StrategyCell, 0, len(rules)*len(StrategyNames()))
	for _, nr := range rules {
		for _, s := range StrategyNames() {
			cell, err := StrategyAvailability(nr.Rule, n, p, s)
			if err != nil {
				return nil, fmt.Errorf("markov: %s/%s: %w", nr.Name, s, err)
			}
			cell.Rule = nr.Name
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// FormatStrategyMatrix renders cells as an aligned text table,
// unavailabilities in units of 1e-6 (the paper's Table 1 convention).
func FormatStrategyMatrix(cells []StrategyCell) string {
	var b strings.Builder
	b.WriteString("Rule        Strategy       Read unavail.   Write unavail.  Cand. read      Cand. write\n")
	b.WriteString("                            (x 1e-6)        (x 1e-6)        (x 1e-6)        (x 1e-6)\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-11s %-14s %-15.2f %-15.2f %-15.2f %-15.2f\n",
			c.Rule, c.Strategy,
			(1-c.Read)*1e6, (1-c.Write)*1e6,
			(1-c.CandidateRead)*1e6, (1-c.CandidateWrite)*1e6)
	}
	return b.String()
}
