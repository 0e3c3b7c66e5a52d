package markov

import (
	"fmt"
	"strings"

	"coterie/internal/coterie"
)

// Table1Row is one line of the paper's Table 1: write unavailability of the
// conventional (static) grid protocol against the dynamic grid protocol.
type Table1Row struct {
	N           int               // number of replicas
	Shape       coterie.GridShape // best static dimensions
	StaticU     float64           // static grid write unavailability
	DynamicUF64 float64           // dynamic grid write unavailability
}

// Table1Params are the evaluation parameters of the paper's Section 6:
// p = 0.95 is reached with μ/λ = 19.
type Table1Params struct {
	NodeCounts []int
	Lambda     float64
	Mu         float64
}

// PaperTable1Params returns the exact configuration of the paper's Table 1.
func PaperTable1Params() Table1Params {
	return Table1Params{
		NodeCounts: []int{9, 12, 15, 16, 20, 24, 30},
		Lambda:     1,
		Mu:         19,
	}
}

// P returns the steady-state probability that a node is up, μ/(λ+μ).
func (p Table1Params) P() float64 { return p.Mu / (p.Lambda + p.Mu) }

// Table1 computes the rows of Table 1. The static column uses the best
// exact factorization at probability p (strict rule, matching Cheung et
// al.); the dynamic column solves the Figure 3 chain.
func Table1(params Table1Params) ([]Table1Row, error) {
	p := params.P()
	rows := make([]Table1Row, 0, len(params.NodeCounts))
	for _, n := range params.NodeCounts {
		shape, staticU := BestStaticGrid(n, p, true)
		model := DynamicGridModel{N: n, Lambda: params.Lambda, Mu: params.Mu}
		dynU, err := model.Unavailability()
		if err != nil {
			return nil, fmt.Errorf("markov: N=%d: %w", n, err)
		}
		rows = append(rows, Table1Row{N: n, Shape: shape, StaticU: staticU, DynamicUF64: dynU})
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout. Unavailabilities print
// in units of 1e-6 for the static column (matching the paper) and in
// scientific notation for the dynamic column.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Num.   Static Grid                    Dynamic Grid\n")
	b.WriteString("of     Best      Unavailability       unavailability\n")
	b.WriteString("Nodes  dimens.\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-9s %10.2f x 1e-6   %.4g\n",
			r.N, r.Shape, r.StaticU*1e6, r.DynamicUF64)
	}
	return b.String()
}

// ProtocolRow is one line of Table 1 for the protocol as written: the
// dynamic protocol's write unavailability when each rule's own write
// quorums decide every epoch change (RuleModel), not Figure 3's transition.
type ProtocolRow struct {
	N     int
	Write []float64 // one per rule, in the order the rules were given
}

// ProtocolTable1 computes the protocol-exact Table 1 for rules at the
// parameters' node counts and rates.
func ProtocolTable1(params Table1Params, rules []coterie.Rule) ([]ProtocolRow, error) {
	rows := make([]ProtocolRow, 0, len(params.NodeCounts))
	for _, n := range params.NodeCounts {
		row := ProtocolRow{N: n, Write: make([]float64, len(rules))}
		for i, rule := range rules {
			var err error
			row.Write[i], _, err = RuleModel(rule, n, params.Lambda, params.Mu).Unavailabilities()
			if err != nil {
				return nil, fmt.Errorf("markov: %s N=%d: %w", rule.Name(), n, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatProtocolTable1 renders ProtocolTable1's rows, one column per rule.
func FormatProtocolTable1(rules []coterie.Rule, rows []ProtocolRow) string {
	var b strings.Builder
	header := "Nodes "
	for _, r := range rules {
		header += fmt.Sprintf(" %-13s", r.Name())
	}
	b.WriteString(strings.TrimRight(header, " ") + "\n")
	for _, row := range rows {
		line := fmt.Sprintf("%-6d", row.N)
		for _, u := range row.Write {
			line += fmt.Sprintf(" %-13.4g", u)
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}
