// Command benchfig regenerates the tables and figures of the paper's
// evaluation (Section 5). Each figure prints the same series the paper
// plots; README "Reproducing the paper's figures" lists them and
// benchmark/results/ holds the committed reference runs.
//
// Usage:
//
//	benchfig -fig 4            # Figure 4 (Contrarian variants vs Cure)
//	benchfig -fig 5            # Figure 5 (Contrarian vs CC-LO, 1 & 2 DC)
//	benchfig -fig 6            # Figure 6 (readers-check overhead vs clients)
//	benchfig -fig 7a|7b        # Figure 7 (write-ratio sweep, 1 or 2 DC)
//	benchfig -fig 8            # Figure 8 (skew sweep)
//	benchfig -fig 9            # Figure 9 (ROT size sweep)
//	benchfig -fig values       # §5.8 (value size sweep)
//	benchfig -fig table2       # Table 2 (systems characterization)
//	benchfig -fig wal          # durability: WAL off vs sync vs async
//	benchfig -fig store        # storage engine vs pre-refactor baseline (10M keys)
//	benchfig -fig overload     # admission control: ungated vs gated past saturation
//	benchfig -fig all          # everything except -fig store and -fig overload
//
// Scale knobs: -partitions, -keys, -clients, -duration, -warmup, -paper.
// With -json FILE, the measured series of the run are additionally written
// as JSON (CI archives the store figure this way).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to reproduce: 4,5,6,7a,7b,8,9,values,compare,ablation,table2,wal,store,overload,all")
		partitions = flag.Int("partitions", 8, "partitions per DC")
		keys       = flag.Int("keys", 20000, "keys per partition")
		clientsCSV = flag.String("clients", "4,16,64,192", "comma-separated clients/DC sweep")
		duration   = flag.Duration("duration", 4*time.Second, "measurement window per point")
		warmup     = flag.Duration("warmup", time.Second, "warmup per point")
		skew       = flag.Duration("skew", time.Millisecond, "max physical clock skew")
		paper      = flag.Bool("paper", false, "use paper-scale parameters (hours of runtime)")
		jsonOut    = flag.String("json", "", "also write the measured series as JSON to this file")
		storeKeys  = flag.Int("store-keys", 10_000_000, "-fig store: key count")
		storeSh    = flag.Int("store-shards", 0, "-fig store: engine shard count (0 = auto from GOMAXPROCS)")
		storeWk    = flag.Int("store-workers", 0, "-fig store: worker goroutines per phase (0 = auto)")
	)
	flag.Parse()

	o := bench.DefaultOpts(os.Stdout)
	if *paper {
		o = bench.PaperOpts(os.Stdout)
	} else {
		o.Partitions = *partitions
		o.KeysPerPartition = *keys
		o.Duration = *duration
		o.Warmup = *warmup
		o.MaxSkew = *skew
		var cs []int
		for _, f := range strings.Split(*clientsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fatal("bad -clients: %v", err)
			}
			cs = append(cs, n)
		}
		o.Clients = cs
	}

	var collected []bench.Series
	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fatal("%s: %v", name, err)
		}
	}
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("table2") {
		bench.PrintTable2(os.Stdout)
	}
	if want("4") {
		run("figure 4", func() error {
			series, err := bench.Figure4(o)
			collected = append(collected, series...)
			if err == nil {
				bench.PlotSeries(os.Stdout, "Figure 4 (plot)", series)
			}
			return err
		})
	}
	if want("5") {
		run("figure 5", func() error {
			series, err := bench.Figure5(o)
			collected = append(collected, series...)
			if err == nil {
				bench.PlotSeries(os.Stdout, "Figure 5 (plot)", series)
			}
			return err
		})
	}
	if want("6") {
		run("figure 6", func() error {
			series, err := bench.Figure6(o)
			collected = append(collected, series)
			return err
		})
	}
	if want("7a") {
		run("figure 7a", func() error {
			series, err := bench.Figure7(o, 1)
			collected = append(collected, series...)
			return err
		})
	}
	if want("7b") {
		run("figure 7b", func() error {
			series, err := bench.Figure7(o, 2)
			collected = append(collected, series...)
			return err
		})
	}
	if want("8") {
		run("figure 8", func() error {
			series, err := bench.Figure8(o)
			collected = append(collected, series...)
			return err
		})
	}
	if want("9") {
		run("figure 9", func() error {
			series, err := bench.Figure9(o)
			collected = append(collected, series...)
			return err
		})
	}
	if want("values") {
		run("value sizes", func() error {
			series, err := bench.ValueSizes(o)
			collected = append(collected, series...)
			return err
		})
	}
	if want("compare") {
		run("compare all", func() error {
			series, err := bench.CompareAll(o)
			collected = append(collected, series...)
			if err == nil {
				bench.PlotSeries(os.Stdout, "All protocols (plot)", series)
			}
			return err
		})
	}
	if want("ablation") {
		run("clock ablation", func() error { _, err := bench.AblationClockFreshness(o, 30); return err })
	}
	if want("wal") {
		run("wal sync modes", func() error {
			series, err := bench.FigureWAL(o, "")
			collected = append(collected, series...)
			return err
		})
	}
	// The store figure is opt-in only (not part of "all"): at its default
	// 10M-key scale it is a memory benchmark, not a protocol figure.
	if *fig == "store" {
		run("store engine", func() error {
			series, err := bench.FigureStore(*storeKeys, *storeSh, *storeWk, os.Stdout)
			collected = append(collected, series...)
			return err
		})
	}
	// The overload figure is opt-in only (not part of "all"): it
	// deliberately drives the cluster past saturation, so its points are
	// shed/goodput measurements, not comparable protocol figures.
	if *fig == "overload" {
		run("overload admission", func() error {
			series, err := bench.FigureOverload(o, 2)
			collected = append(collected, series...)
			return err
		})
	}
	if *jsonOut != "" {
		if len(collected) == 0 {
			// table2/ablation produce no Series; after an otherwise
			// successful run, warn and write a valid empty archive rather
			// than failing (or emitting literal "null").
			fmt.Fprintf(os.Stderr, "benchfig: -fig %s produced no measured series; writing an empty JSON array\n", *fig)
			collected = []bench.Series{}
		}
		buf, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fatal("marshal -json: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal("write -json: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
