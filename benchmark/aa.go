package main

import (
	"fmt"
	"sort"
)

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the driver uses to judge spread.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// aaCell is one workload x metric comparison of the two same-code sets.
type aaCell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	Q1A      float64 `json:"q1_a"`
	Q3A      float64 `json:"q3_a"`
	SpreadA  float64 `json:"spread_a"` // (Q3-Q1)/median
	MedianB  float64 `json:"median_b"`
	Q1B      float64 `json:"q1_b"`
	Q3B      float64 `json:"q3_b"`
	SpreadB  float64 `json:"spread_b"`
	Gap      float64 `json:"gap"` // how much worse B's median is than A's, as a share of A's
	Pass     bool    `json:"pass"`

	A []float64 `json:"a"`
	B []float64 `json:"b"`
}

// aaMode runs two interleaved sets (A, B) of n full passes of this same
// binary, every run on another seed, and judges each workload x end-to-end
// metric as the driver does: each set's quartile spread and the gap between
// the two medians must stay within the metric's bound (setup_s is judged on
// the gap alone).
func (r runner) aaMode(n int, seed int64, jsonOut string) error {
	vals := make(map[string]*[2][]float64) // workload/metric -> sets
	for pass := 0; pass < n; pass++ {
		for set := 0; set < 2; set++ {
			for i := range specs {
				sp := &specs[i]
				s := seed + int64(2*pass+set)
				res, err := r.child(sp, s, false, "")
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: incorrect outputs (%d of %d failed)", sp.Name, s, res.Failed, res.Attempted)
				}
				for _, m := range endToEnd {
					k := sp.Name + "/" + m.Name
					if vals[k] == nil {
						vals[k] = new([2][]float64)
					}
					vals[k][set] = append(vals[k][set], res.Metrics[m.Name].Value)
				}
			}
		}
	}
	var cells []aaCell
	failed := 0
	fmt.Printf("%-26s %-18s %12s %7s | %12s %7s | %7s %6s %s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound", "")
	for _, sp := range specs {
		for _, m := range endToEnd {
			v := vals[sp.Name+"/"+m.Name]
			c := aaCell{Workload: sp.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, A: v[0], B: v[1]}
			c.Q1A, c.MedianA, c.Q3A = quartiles(v[0])
			c.Q1B, c.MedianB, c.Q3B = quartiles(v[1])
			c.SpreadA = (c.Q3A - c.Q1A) / c.MedianA
			c.SpreadB = (c.Q3B - c.Q1B) / c.MedianB
			c.Gap = (c.MedianB - c.MedianA) / c.MedianA
			if m.Better == "higher" {
				c.Gap = -c.Gap
			}
			c.Pass = c.Gap <= m.Bound && (m.Name == "setup_s" || (c.SpreadA <= m.Bound && c.SpreadB <= m.Bound))
			verdict := "PASS"
			switch {
			case !c.Pass && sp.Ungated:
				verdict = "FAIL (ungated)"
			case !c.Pass:
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-26s %-18s %12.4f %6.2f%% | %12.4f %6.2f%% | %+6.2f%% %5.0f%% %s\n",
				c.Workload, c.Metric, c.MedianA, 100*c.SpreadA, c.MedianB, 100*c.SpreadB, 100*c.Gap, 100*c.Bound, verdict)
			cells = append(cells, c)
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, cells); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d gated workload x metric pairs outside their bound", failed)
	}
	return nil
}
