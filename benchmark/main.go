// Command benchmark is the repository's performance benchmark: a repeatable
// per-family PUT/ROT measurement with a light phase, a loaded phase and an
// outside-in layer ledger. See README.md.
//
//	go run -C benchmark . --workload contrarian-read --seed 1 --seconds 20 --trace 0
//
// measures one workload and prints one JSON object as its last line (the
// contract BENCHMARK.json's driver runs). Without --workload it runs every
// workload and prints a table; -aa N runs the A/A comparison.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as JSON (empty: run all and print a table)")
		seed         = flag.Int64("seed", 1, "selects the op streams")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run (light + vis + loaded)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, decorators absent; 1: per-layer metrics from the traced run")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the light phase's spans to this file as JSON lines")
		aa           = flag.Int("aa", 0, "A/A mode: two interleaved sets of N full passes of this binary, compared against the bounds")
		jsonOut      = flag.String("json", "", "full-pass and A/A modes: also write the results to this file")
		manifest     = flag.String("write-manifest", "", "write BENCHMARK.json to this path from the program's own tables and exit")
		child        = flag.Bool("child", false, "internal: measure in this process (the parent supervises and re-runs a crashed child)")
	)
	flag.Parse()
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fatal(err)
		}
		return
	}
	scratch, err := scratchDir()
	if err != nil {
		fatal(err)
	}

	if *child {
		sp := findSpec(*workloadName)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := measure(runOpts{
			spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
			scratch: scratch, verify: secs(verifySecs), setups: setupRepeats,
		})
		if err != nil {
			fatal(err)
		}
		printResult(res)
		return
	}

	run := runner{seconds: *seconds, scratch: scratch}
	switch {
	case *workloadName != "":
		sp := findSpec(*workloadName)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, workloadNames()))
		}
		res, err := run.child(sp, *seed, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		printResult(res)
	case *aa > 0:
		if err := run.aaMode(*aa, *seed, *jsonOut); err != nil {
			fatal(err)
		}
	default:
		if err := run.fullPass(*seed, *trace == 1, *traceOut, *jsonOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.Name)
	}
	return strings.Join(n, ", ")
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// scratchDir is where a run may write (the durable workload's data dir):
// .bench_build/run under the checkout root — the directory holding
// BENCHMARK.json — so nothing is touched outside the checkout.
func scratchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := dir
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			root = d
			break
		}
		if d == filepath.Dir(d) {
			break
		}
	}
	s := filepath.Join(root, ".bench_build", "run")
	return s, os.MkdirAll(s, 0o755)
}

// runner launches measurements as child processes: one child per workload
// run, so each has its own heap and peak RSS, GOMAXPROCS pinned.
type runner struct {
	seconds float64
	scratch string
}

const (
	// A run must end within the driver's 180 s; a crashed child is re-run
	// while another full attempt (the measured seconds plus set-up, verify
	// and tear-down) still fits.
	runDeadline  = 175 * time.Second
	runOverheadS = 8
)

// child measures one workload in a child process and returns its result.
// A child that dies without a result (a crash in the program under test —
// see README.md, "Known hazard") is re-run and counted.
func (r runner) child(sp *spec, seed int64, trace bool, traceOut string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-child", "-workload", sp.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(r.seconds)}
	if trace {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	begin := time.Now()
	var crashes int
	var lastErr error
	for attempt := 1; ; attempt++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		err := cmd.Run() // waits for the child to end
		if err == nil {
			var res result
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				return result{}, fmt.Errorf("child printed no result: %w", jerr)
			}
			if trace {
				res.Metrics["harness.child_crashes"] = metricValue{float64(crashes), "count"}
			}
			return res, nil
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return result{}, err // could not start at all
		}
		crashes++
		os.RemoveAll(dataDirOf(r.scratch, cmd.Process.Pid)) // a panic skips the child's own clean-up
		lastErr = fmt.Errorf("child %s: %w", sp.Name, err)
		logf("benchmark: %v (attempt %d)", lastErr, attempt)
		if time.Since(begin)+secs(r.seconds+runOverheadS) > runDeadline {
			break
		}
	}
	return result{}, fmt.Errorf("%w; gave up after %d crashed attempts", lastErr, crashes)
}

// fullPass runs every workload once (and, with traced, its traced run too)
// and prints every metric by name with its unit.
func (r runner) fullPass(seed int64, traced bool, traceOut, jsonOut string) error {
	type row struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		result
	}
	var rows []row
	ok := true
	for i := range specs {
		sp := &specs[i]
		for t := 0; t <= 1; t++ {
			if t == 1 && !traced {
				continue
			}
			out := ""
			if t == 1 && traceOut != "" {
				out = strings.TrimSuffix(traceOut, ".json") + "-" + sp.Name + ".json"
			}
			res, err := r.child(sp, seed, t == 1, out)
			if err != nil {
				return err
			}
			rows = append(rows, row{sp.Name, t, res})
			ok = ok && res.Correct
			defs := endToEnd
			if t == 1 {
				defs = perLayer
			}
			fmt.Printf("\n%s (trace %d): correct=%v attempted=%d failed=%d\n", sp.Name, t, res.Correct, res.Attempted, res.Failed)
			for _, d := range defs {
				fmt.Printf("  %-40s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, rows); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("a workload reported incorrect outputs")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
