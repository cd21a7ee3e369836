package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ring"
	"repro/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The committed BENCHMARK.json must be what the program's tables generate.
func TestManifestMatchesTables(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeManifest(tmp); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(tmp)
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run -C benchmark . -write-manifest ../BENCHMARK.json`")
	}
}

func TestNamesWithinContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the charset or length", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q outside the charset or length", name, unit)
		}
	}
	for _, s := range specs {
		check(s.Name, "")
		if len(s.Why) > 200 {
			t.Errorf("%s: why is %d characters", s.Name, len(s.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

func TestSameSeedSameStreams(t *testing.T) {
	sp := findSpec("contrarian-read")
	ks := workload.BuildKeySpace(sp.Mix, ring.New(sp.Parts))
	_, a := buildStreams(sp.Mix, ks, 7, 4)
	_, b := buildStreams(sp.Mix, ks, 7, 4)
	_, c := buildStreams(sp.Mix, ks, 8, 4)
	if a != b {
		t.Errorf("seed 7 hashed to %x then %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 both hashed to %x", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func smokeOpts(t *testing.T, sp *spec, trace bool) runOpts {
	return runOpts{spec: sp, seed: 3, seconds: 1.6, trace: trace, scratch: t.TempDir(), verify: 300 * time.Millisecond, setups: 1}
}

// Every name in BENCHMARK.json is emitted for every workload, finite; the
// checker reports no violation; layers absent from a workload read zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		for _, trace := range []bool{false, true} {
			res, err := measure(smokeOpts(t, sp, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || len(res.violations) != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d, violations %v", sp.Name, trace, res.Correct, res.Failed, res.Attempted, res.violations)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", sp.Name, trace, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: %s = %v %q", sp.Name, d.Name, m.Value, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", sp.Name, d.Name, m.Value)
				}
				if trace && sp.Family != famCCLO && len(d.Name) > 5 && d.Name[:5] == "cclo." && m.Value != 0 {
					t.Errorf("%s: %s = %v off CC-LO", sp.Name, d.Name, m.Value)
				}
				if trace && !sp.Durable && len(d.Name) > 4 && d.Name[:4] == "wal." && m.Value != 0 {
					t.Errorf("%s: %s = %v without a data dir", sp.Name, d.Name, m.Value)
				}
			}
			if trace {
				// The ledger's point: blocking calls account for the client
				// medians within the residual README.md states.
				for _, op := range []string{"rot", "put"} {
					if r := res.Metrics["ledger."+op+"_residual_frac"].Value; r < -0.02 || r > ledgerResidualMax {
						t.Errorf("%s: ledger %s residual %.3f outside [-0.02, %.2f]", sp.Name, op, r, ledgerResidualMax)
					}
				}
			}
		}
	}
}

// The hand assembly must behave like cluster.Start: the light-phase ROT
// median agrees with bench.Run at one session per DC within 5% (plus the
// width of bench's histogram bucket).
func TestLightPhaseMatchesBenchRun(t *testing.T) {
	sp := findSpec("contrarian-read")
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		o := smokeOpts(t, sp, false)
		o.seconds = 6
		res, err := measure(o)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := bench.Run(
			bench.System{Protocol: cluster.Contrarian, DCs: numDCs, Partitions: sp.Parts, Tenants: 1},
			bench.RunSpec{Workload: sp.Mix, ClientsPerDC: 1, Duration: 1500 * time.Millisecond, Warmup: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ours, theirs := res.Metrics["rot_p50_us"].Value, float64(pt.ROT.P50)/1e3
		if math.Abs(ours-theirs)/theirs <= 0.05+0.022 {
			return
		}
		last = "benchmark " + time.Duration(ours*1e3).String() + " vs bench.Run " + pt.ROT.P50.String()
	}
	t.Errorf("light-phase rot p50 disagrees with bench.Run three times: %s", last)
}
