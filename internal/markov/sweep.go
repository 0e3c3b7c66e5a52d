package markov

import (
	"fmt"
	"strings"
)

// Availability sweeps: figure-style series of unavailability against the
// repair/failure ratio μ/λ (equivalently the per-node availability
// p = μ/(λ+μ)) for each protocol. The paper evaluates a single point
// (p = 0.95); the sweep shows how the dynamic protocols' advantage scales
// with node reliability — the shape the paper's Table 1 samples.

// SweepPoint is one ratio's results.
type SweepPoint struct {
	MuOverLambda float64
	P            float64 // per-node availability
	StaticGrid   float64 // best static grid write unavailability
	StaticMaj    float64 // static majority voting
	DynamicGrid  float64 // Figure 3's transition
	DynamicRead  float64 // dynamic grid read unavailability
	DynVoting    float64 // dynamic majority voting
	ROWA         float64 // read-one/write-all writes
}

// Sweep computes the series for n replicas over the given μ/λ ratios.
func Sweep(n int, ratios []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(ratios))
	for _, ratio := range ratios {
		if ratio <= 0 {
			return nil, fmt.Errorf("markov: non-positive ratio %g", ratio)
		}
		lambda, mu := 1.0, ratio
		p := mu / (lambda + mu)
		pt := SweepPoint{MuOverLambda: ratio, P: p}
		_, pt.StaticGrid = BestStaticGrid(n, p, true)
		pt.StaticMaj = 1 - StaticMajorityWriteAvailability(n, p)
		var err error
		pt.DynamicGrid, pt.DynamicRead, err = PaperReadModel(n, lambda, mu).Unavailabilities()
		if err != nil {
			return nil, err
		}
		pt.DynVoting, err = DynamicVotingModel{N: n, Lambda: lambda, Mu: mu}.Unavailability()
		if err != nil {
			return nil, err
		}
		pt.ROWA = 1 - ROWAWriteAvailability(n, p)
		out = append(out, pt)
	}
	return out, nil
}

// FormatSweep renders the series as an aligned table.
func FormatSweep(n int, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Write unavailability vs repair ratio, N = %d\n\n", n)
	b.WriteString("mu/lambda  p        static-grid  static-maj   dyn-grid     dyn-grid-rd  dyn-voting   rowa\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-10.3g %-8.4f %-12.3e %-12.3e %-12.3e %-12.3e %-12.3e %-12.3e\n",
			pt.MuOverLambda, pt.P, pt.StaticGrid, pt.StaticMaj, pt.DynamicGrid, pt.DynamicRead, pt.DynVoting, pt.ROWA)
	}
	return b.String()
}
