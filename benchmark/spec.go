package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/workload"
)

// family selects the protocol a workload's cluster runs.
type family uint8

const (
	famContrarian family = iota
	famCCLO
)

// spec is one benchmark workload: a cluster shape plus a traffic mix.
type spec struct {
	Name    string
	Why     string // one line, copied into BENCHMARK.json
	Family  family
	Parts   int  // partitions per DC (always 2 DCs)
	TCP     bool // one loopback transport.TCP per process-to-be instead of one Local
	Durable bool // wal.SyncAlways data dir on the real filesystem
	Mix     workload.Config

	// Ungated workloads run, are verified and are reported like the others
	// but are left out of BENCHMARK.json: their A/A runs do not repeat
	// within the bounds (README.md, "Ungated workloads").
	Ungated bool
}

const (
	numDCs       = 2
	keysPerPart  = 20000
	loadedPerDC  = 8                      // closed-loop sessions per DC in the loaded phase
	burstPerDC   = 32                     // sessions per DC in the traced run's peak burst
	warmupOps    = 8000                   // fixed op count, so warm-up work does not depend on speed
	setupRepeats = 3                      // set-ups per run; setup_s is their median
	streamLen    = 8192                   // pre-generated ops per session, replayed cyclically
	visProbes    = 200                    // put-in-DC0 / poll-in-DC1 probes at full windows
	verifySecs   = 1.5                    // untimed traffic recorded through check.History
	sampleCap    = 1 << 18                // raw latency samples kept per session per phase
	sliceLen     = 500 * time.Millisecond // measured windows are cut into slices of this length
)

func mix(parts int, w float64, p, b int) workload.Config {
	c := workload.Default(parts, keysPerPart)
	c.WriteRatio, c.RotSize, c.ValueSize = w, p, b
	return c
}

// The workloads. Each stresses a different set of layers; see README.md for
// the layer ↔ metric table and for why two of them are not gated.
var specs = []spec{
	{
		Name:   "contrarian-read",
		Why:    "Contrarian 1.5-round ROTs on the simulated LAN/WAN at the paper's default mix: rounds and blocking set latency; wal and cclo are idle",
		Family: famContrarian, Parts: 4, Mix: mix(4, 0.05, 4, 8),
	},
	{
		Name:   "cclo-read",
		Why:    "CC-LO on the identical topology, mix and seed: readers checks and old-reader records do the work; core and its stabilizer are idle (Figure 5)",
		Family: famCCLO, Parts: 4, Mix: mix(4, 0.05, 4, 8),
	},
	{
		Name:   "contrarian-write",
		Why:    "Contrarian at w=0.5 with 128 B values, in memory: the replication stream, store writes and larger frames run beside reads, without a disk's noise",
		Family: famContrarian, Parts: 4, Mix: mix(4, 0.5, 4, 128),
	},
	{
		Name:   "contrarian-write-durable",
		Why:    "contrarian-write with an fsync-per-ack WAL on the real filesystem: group commit dominates PUTs",
		Family: famContrarian, Parts: 4, Durable: true, Mix: mix(4, 0.5, 4, 128),
		Ungated: true,
	},
	{
		Name:   "contrarian-tcp",
		Why:    "Contrarian over loopback TCP with no injected delay: every microsecond is codec, syscalls and dispatch; the simulator's delivery wheel is bypassed",
		Family: famContrarian, Parts: 2, TCP: true, Mix: mix(2, 0.05, 2, 8),
		Ungated: true,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// metricDef names one reported quantity. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a client of the store observes. The same set is emitted
// by every workload's untraced run. Each bound is sized on the noisiest gated
// workload's spread over ten seeds (README.md, "Spread and bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rot_p50_us", "us", "lower", 0.10},
	{"put_p50_us", "us", "lower", 0.10},
	{"vis_p50_ms", "ms", "lower", 0.10},
	{"loaded_ops_per_s", "1/s", "higher", 0.25},
	{"net_bytes_per_op", "B/op", "lower", 0.02},
	{"mem_peak_mb", "MB", "lower", 0.20},
}

// The message classes whose blocking calls and handlers get a metric each.
// Both families map onto the same classes (trace.go), so every workload
// emits the same metric set.
var (
	callClasses   = []int{clsPut, clsRot, clsReadersCheck, clsDepCheck, clsReplicate}
	handleClasses = []int{clsPut, clsRotCoord, clsRotLeg, clsReadersCheck, clsDepCheck, clsReplicate, clsStabilize}
	ledgerLayers  = []string{"client", "transport", "protocol", "wal"} // indexed by span kind
)

// perLayer is emitted by the traced run. Names are prefixed with the module
// (layer) they measure.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{Name: name, Unit: unit, Better: better}) }

	add("transport.msgs_per_op", "count", "lower")
	add("transport.msgs_per_flush", "count", "higher")
	add("transport.flush_delay_p99_us", "us", "lower")
	add("transport.sendq_peak", "count", "lower")
	add("transport.handler_spills_per_kop", "count", "lower")
	for _, c := range callClasses {
		add("transport.call_us."+classNames[c], "us", "lower")
	}
	for _, c := range handleClasses {
		add("transport.handle_us."+classNames[c], "us", "lower")
	}
	add("transport.handle_busy_frac", "frac", "lower")
	add("transport.tcp.writev_bytes_per_op", "B/op", "higher")
	add("transport.open_conns_peak", "count", "lower")
	add("transport.sessions_peak", "count", "lower")

	add("wire.encode_ns_per_msg", "ns", "lower")
	add("wire.decode_ns_per_msg", "ns", "lower")
	add("wire.bytes_per_msg", "B", "lower")
	add("wire.allocs_per_msg", "count", "lower")

	add("core.rot_rounds", "count", "lower")
	add("core.stabilize_msgs_per_s", "1/s", "lower")
	add("core.rep_updates_per_batch", "count", "higher")
	add("core.gss_lag_ms", "ms", "lower")

	add("cclo.checks_per_put", "count", "lower")
	add("cclo.check_keys", "count", "lower")
	add("cclo.check_partitions", "count", "lower")
	add("cclo.check_ids_distinct", "count", "lower")
	add("cclo.check_ids_cumulative", "count", "lower")
	add("cclo.fence_retries", "count", "lower")

	add("wal.appends_per_fsync", "count", "higher")
	add("wal.fsync_p50_us", "us", "lower")
	add("wal.fsync_p99_us", "us", "lower")
	add("wal.append_wait_p50_us", "us", "lower")
	add("wal.bytes_per_put", "B", "lower")
	add("wal.cursor_appends_per_kput", "count", "lower")
	add("wal.recover_us_per_krec", "us", "lower")

	add("store.read_ns", "ns", "lower")
	add("store.put_ns", "ns", "lower")

	add("proc.cpu_us_per_op", "us", "lower")
	add("proc.alloc_bytes_per_op", "B/op", "lower")
	add("proc.allocs_per_op", "count", "lower")
	add("proc.gc_pause_p99_us", "us", "lower")
	add("proc.gc_cpu_frac", "frac", "lower")
	add("proc.goroutines_peak", "count", "lower")

	add("client.rot_p99_us", "us", "lower")
	add("client.put_p99_us", "us", "lower")
	add("client.loaded_rot_p50_us", "us", "lower")
	add("client.loaded_put_p50_us", "us", "lower")
	add("client.loaded_rot_p99_us", "us", "lower")
	add("client.loaded_put_p99_us", "us", "lower")
	add("client.peak_ops_per_s", "1/s", "higher")

	for _, op := range []string{"rot", "put"} {
		for _, l := range ledgerLayers {
			add("ledger."+op+"_self_us."+l, "us", "lower")
		}
		add("ledger."+op+"_residual_frac", "frac", "lower")
	}

	add("cluster.start_s", "s", "lower")
	add("cluster.preload_s", "s", "lower")
	add("harness.warmup_s", "s", "lower")
	add("harness.gen_us_per_op", "us", "lower")
	add("harness.trace_overhead_frac", "frac", "lower")
	add("harness.child_crashes", "count", "lower")
	return m
}

// ledgerResidualMax is the stated ledger residual: on every workload the
// client's blocking calls must account for the light-phase ROT and PUT
// medians to within this share (what is left is client-side CPU: grouping
// keys, building the result). It is about 1-3% where injected delay
// dominates and 5-8% on contrarian-tcp, where an operation is ~30 us.
const ledgerResidualMax = 0.10

// runSeconds is BENCHMARK.json's run_seconds: the measured part (light +
// vis + loaded) of one run. See README.md for how it follows from the
// driver's total-time cap.
const runSeconds = 36

// writeManifest writes BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (the smoke test compares them).
func writeManifest(path string) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"` // bound present: it is nonzero
		PerLayer   []metricDef `json:"per_layer"`  // bound omitted: it is zero
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "repro/benchmark"}, // the package by import path: "." would name the checkout root
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		if !s.Ungated {
			doc.Workloads = append(doc.Workloads, wl{s.Name, s.Why})
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
