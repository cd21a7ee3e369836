package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runOpts is one measurement: a workload, a seed, a measured length.
type runOpts struct {
	spec     *spec
	seed     int64
	seconds  float64 // the measured part: light + vis + loaded
	trace    bool
	traceOut string // span file, traced run only ("" = do not write)
	scratch  string // directory for the durable workload's data dir
	verify   time.Duration
	setups   int // set-ups per untraced run; setup_s is their median
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Not printed: the smoke test reads them.
	streamHash uint64
	violations []error
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run is the state of one measurement.
type run struct {
	o        runOpts
	ks       *workload.KeySpace
	streams  []*opStream
	genPerOp float64 // microseconds to pre-generate one op
	tr       *tracer // nil when untraced
	dataDir  string
	r        *rig
	setup    setupTimes // the median set-up
	res      result
}

// dataDirOf is the durable workload's data dir of the process pid.
func dataDirOf(scratch string, pid int) string {
	return filepath.Join(scratch, fmt.Sprintf("data-%d", pid))
}

// measure runs one workload once and returns its metrics: the end-to-end
// set when untraced, the per-layer set when traced.
func measure(o runOpts) (result, error) {
	logPins(o)
	sp := o.spec
	m := &run{o: o, dataDir: dataDirOf(o.scratch, os.Getpid())}
	defer os.RemoveAll(m.dataDir)

	// Inputs first, before any clock: key space and op streams from the seed.
	genStart := time.Now()
	m.ks = workload.BuildKeySpace(sp.Mix, ring.New(sp.Parts))
	var hash uint64
	m.streams, hash = buildStreams(sp.Mix, m.ks, o.seed, numDCs*loadedPerDC)
	m.genPerOp = time.Since(genStart).Seconds() * 1e6 / float64(len(m.streams)*streamLen)
	logf("op streams: %d x %d ops, hash %016x", len(m.streams), streamLen, hash)
	m.res = result{Metrics: make(map[string]metricValue), streamHash: hash}

	repeats := o.setups
	if o.trace {
		m.tr = newTracer()
		repeats = 1 // the traced run reports the parts of set-up, not setup_s
	}
	// Set-up, several times: setup_s is the median, so one slow page-fault
	// or fsync burst does not decide it. The last cluster is the one measured.
	bufs := make([][]int64, numDCs*loadedPerDC)
	for i := range bufs {
		bufs[i] = make([]int64, 0, sampleCap)
	}
	var setups []setupTimes
	for i := 0; i < repeats; i++ {
		if m.r != nil {
			m.r.close()
			os.RemoveAll(m.dataDir)
		}
		st, err := m.setUp(bufs)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, st)
		logf("setup %d: %.3fs (start %.3f preload %.3f attach %.3f warmup %.3f gc %.3f)", i+1,
			st.total().Seconds(), st.start.Seconds(), st.preload.Seconds(), st.attach.Seconds(), st.warmup.Seconds(), st.gc.Seconds())
	}
	defer func() { m.r.close() }()
	slices.SortFunc(setups, func(a, b setupTimes) int { return int(a.total() - b.total()) })
	m.setup = setups[len(setups)/2]

	var err error
	if o.trace {
		err = m.traced()
	} else {
		err = m.untraced()
	}
	return m.res, err
}

// setUp is everything setup_s times: assemble, preload, attach, a fixed
// number of warm-up operations, a forced GC.
func (m *run) setUp(bufs [][]int64) (st setupTimes, err error) {
	t0 := time.Now()
	if m.r, err = startRig(m.o.spec, m.tr, m.dataDir); err != nil {
		return st, err
	}
	m.r.bufs = bufs
	st.start = time.Since(t0)
	t0 = time.Now()
	m.r.preload(m.ks)
	st.preload = time.Since(t0)
	t0 = time.Now()
	if err := m.r.attach(loadedPerDC, m.streams); err != nil {
		m.r.close()
		return st, err
	}
	st.attach = time.Since(t0)
	t0 = time.Now()
	warm := runPhase(m.r.sessions, 0, 0, warmupOps, nil, nil, nil)
	st.warmup = time.Since(t0)
	t0 = time.Now()
	runtime.GC()
	st.gc = time.Since(t0)
	if warm.failed > 0 {
		m.r.close()
		return st, fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.attempted)
	}
	return st, nil
}

func (m *run) count(attempted, failed uint64) {
	m.res.Attempted += attempted
	m.res.Failed += failed
}

// lightSessions is one session per DC (2 generators = nproc).
func (m *run) lightSessions() []*session {
	return []*session{m.r.sessions[0], m.r.sessions[loadedPerDC]}
}

// vis probes from the first session of DC0 to the first of DC1.
func (m *run) vis(probes int, limit time.Duration) visResult {
	v := runVis(m.r.sessions[0], m.r.sessions[loadedPerDC], m.ks, probes, limit)
	m.count(v.attempted, v.failed)
	logf("vis: %d probes, p50 %.3f ms, p99 %.3f ms", len(v.ns), pct(v.ns, 50)/1e6, pct(v.ns, 99)/1e6)
	return v
}

// untraced measures the end-to-end metrics: no decorator is in the cluster.
func (m *run) untraced() error {
	r, S := m.r, m.o.seconds
	light := runPhase(m.lightSessions(), secs(0.02*S), secs(0.28*S), 0, nil, nil, nil)
	m.count(light.attempted, light.failed)
	logPhase("light", light)

	vis := m.vis(visProbes, secs(0.10*S))

	var n0, n1 transport.StatsView
	loaded := runPhase(r.sessions, secs(0.08*S), secs(0.52*S), 0, nil,
		func() { n0 = r.netView() }, func() { n1 = r.netView() })
	m.count(loaded.attempted, loaded.failed)
	logPhase("loaded", loaded)

	if len(light.rotNs) == 0 || len(light.putNs) == 0 || len(vis.ns) == 0 || loaded.ops() == 0 {
		return fmt.Errorf("a phase completed no operations (window too short?)")
	}
	set := func(name string, v float64) { m.res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	set("setup_s", m.setup.total().Seconds())
	set("rot_p50_us", pct(light.rotNs, 50)/1e3)
	set("put_p50_us", pct(light.putNs, 50)/1e3)
	set("vis_p50_ms", pct(vis.ns, 50)/1e6)
	set("loaded_ops_per_s", loaded.rate())
	set("net_bytes_per_op", float64(n1.BytesSent-n0.BytesSent)/float64(loaded.ops()))
	// Peak RSS is read before the verify phase: check.History keeps a
	// frontier copy per recorded put, which is the harness's memory, not the
	// store's.
	set("mem_peak_mb", vmHWM())
	m.verify()
	return nil
}

// traced measures the per-layer metrics at half windows with the
// decorators in the cluster.
func (m *run) traced() error {
	r, tr, sp, S := m.r, m.tr, m.o.spec, m.o.seconds
	set := func(name string, v float64) { m.res.Metrics[name] = metricValue{v, unitOf(perLayer, name)} }
	for _, d := range perLayer {
		set(d.Name, 0)
	}

	// Light, with spans: one operation per DC in flight, so the ledger can
	// tell whose work every span is.
	tr.on.Store(true)
	tr.spans.Store(true)
	light := runPhase(m.lightSessions(), secs(0.02*S), secs(0.23*S), 0, nil, nil, nil)
	tr.spans.Store(false)
	tr.on.Store(false)
	m.count(light.attempted, light.failed)
	logPhase("light (traced)", light)
	lightCells := tr.cut()
	spans := tr.takeSpans()
	led := buildLedger(spans)
	if m.o.traceOut != "" {
		if err := writeSpans(m.o.traceOut, spans); err != nil {
			return err
		}
		logf("wrote %d spans to %s", len(spans), m.o.traceOut)
	}

	m.vis(visProbes/4, secs(0.05*S))

	// Loaded twice: decorators passing through, then recording. The
	// difference is what tracing costs.
	off := runPhase(r.sessions, secs(0.04*S), secs(0.16*S), 0, nil, nil, nil)
	m.count(off.attempted, off.failed)
	logPhase("loaded (decorators idle)", off)

	var n0, n1 transport.StatsView
	var w0, w1 wal.StatsView
	c0 := r.ccloView()
	var m0, m1 runtime.MemStats
	var cpu0, cpu1 time.Duration
	var reqs0, rots0 uint64
	smp := startSampler(r)
	tr.on.Store(true)
	loaded := runPhase(r.sessions, secs(0.04*S), secs(0.16*S), 0, nil,
		func() {
			tr.cut() // drop what the discarded lead-in recorded (a few in-flight samples straddle; they are noise)
			reqs0, rots0 = tr.clientReqs.Load(), tr.clientRots.Load()
			tr.repBatches.Store(0)
			tr.repUpdates.Store(0)
			n0, w0, c0, cpu0 = r.netView(), r.walView(), r.ccloView(), cpuTime()
			runtime.ReadMemStats(&m0)
		},
		func() {
			n1, w1, cpu1 = r.netView(), r.walView(), cpuTime()
			runtime.ReadMemStats(&m1)
		})
	tr.on.Store(false)
	goroutinesPeak, gssLagMs := smp.stop()
	m.count(loaded.attempted, loaded.failed)
	logPhase("loaded (traced)", loaded)
	cells := tr.cut()
	c1 := r.ccloView()
	ops := float64(max(loaded.ops(), 1))
	puts := float64(max(loaded.puts, 1))
	win := loaded.window.Seconds()

	// Peak: a short burst at four times the loaded session count.
	if err := r.attach(burstPerDC-loadedPerDC, m.streams); err != nil {
		return err
	}
	burst := runPhase(r.sessions, secs(0.03*S), secs(0.12*S), 0, nil, nil, nil)
	m.count(burst.attempted, burst.failed)
	logPhase("burst", burst)

	// transport
	dn := func(a, b uint64) float64 { return float64(b - a) }
	set("transport.msgs_per_op", dn(n0.MsgsSent, n1.MsgsSent)/ops)
	if f := dn(n0.Flushes, n1.Flushes); f > 0 {
		set("transport.msgs_per_flush", (dn(n0.FramesCoalesced, n1.FramesCoalesced)+f)/f)
	}
	set("transport.flush_delay_p99_us", float64(n1.FlushP99Delay)/1e3)
	set("transport.sendq_peak", float64(n1.SendQueuePeak))
	set("transport.handler_spills_per_kop", dn(n0.HandlerOverflow, n1.HandlerOverflow)/ops*1e3)
	set("transport.tcp.writev_bytes_per_op", dn(n0.WritevBytes, n1.WritevBytes)/ops)
	set("transport.open_conns_peak", float64(n1.OpenConnsPeak))
	set("transport.sessions_peak", float64(n1.SessionsPeak))
	for _, c := range callClasses {
		set("transport.call_us."+classNames[c], lightCells[kindCall][c].p50us())
	}
	var handlerNs uint64
	for _, c := range handleClasses {
		set("transport.handle_us."+classNames[c], cells[kindHandle][c].p50us())
		handlerNs += cells[kindHandle][c].sumNs
	}
	set("transport.handle_busy_frac", float64(handlerNs)/1e9/(win*float64(runtime.GOMAXPROCS(0))))

	// wire: replay the sampled frames through the public codec.
	enc, dec, bytesPer, allocs := replayWire(tr.takeFrames())
	set("wire.encode_ns_per_msg", enc)
	set("wire.decode_ns_per_msg", dec)
	set("wire.bytes_per_msg", bytesPer)
	set("wire.allocs_per_msg", allocs)

	// core (zero on CC-LO: the layer is not in the cluster)
	if sp.Family == famContrarian {
		set("core.rot_rounds", float64(tr.clientReqs.Load()-reqs0)/float64(max(tr.clientRots.Load()-rots0, 1)))
		set("core.stabilize_msgs_per_s", float64(cells[kindHandle][clsStabilize].n)/win)
		if b := tr.repBatches.Load(); b > 0 {
			set("core.rep_updates_per_batch", float64(tr.repUpdates.Load())/float64(b))
		}
		set("core.gss_lag_ms", gssLagMs)
	}

	// cclo (zero elsewhere: no CC-LO server exists)
	if checks := float64(c1.Checks - c0.Checks); checks > 0 {
		set("cclo.checks_per_put", checks/puts)
		set("cclo.check_keys", float64(c1.KeysChecked-c0.KeysChecked)/checks)
		set("cclo.check_partitions", float64(c1.PartitionsAsked-c0.PartitionsAsked)/checks)
		set("cclo.check_ids_distinct", float64(c1.IDsDistinct-c0.IDsDistinct)/checks)
		set("cclo.check_ids_cumulative", float64(c1.IDsCumulative-c0.IDsCumulative)/checks)
	}
	set("cclo.fence_retries", float64(c1.FenceRetries-c0.FenceRetries))

	// wal (zero without a data dir)
	if sp.Durable {
		if f := dn(w0.Fsyncs, w1.Fsyncs); f > 0 {
			set("wal.appends_per_fsync", dn(w0.Appends, w1.Appends)/f)
		}
		var p50, p99 float64
		for _, l := range r.logs {
			p50 += float64(l.Stats().FsyncDelay.Percentile(50)) / 1e3 / float64(len(r.logs))
			p99 = max(p99, float64(l.Stats().FsyncDelay.Percentile(99))/1e3)
		}
		set("wal.fsync_p50_us", p50)
		set("wal.fsync_p99_us", p99)
		set("wal.append_wait_p50_us", cells[kindWAL][clsAppend].p50us())
		set("wal.bytes_per_put", dn(w0.AppendBytes, w1.AppendBytes)/puts)
		set("wal.cursor_appends_per_kput", dn(w0.CursorAppends, w1.CursorAppends)/puts*1e3)
	}

	// store: the workload's key stream against a standalone engine.
	rd, wr := replayStore(sp, m.ks, m.streams[0])
	set("store.read_ns", rd)
	set("store.put_ns", wr)

	// proc
	set("proc.cpu_us_per_op", float64(cpu1-cpu0)/1e3/ops)
	set("proc.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	set("proc.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	set("proc.gc_pause_p99_us", gcPauseP99(&m0, &m1)/1e3)
	set("proc.gc_cpu_frac", m1.GCCPUFraction)
	set("proc.goroutines_peak", float64(goroutinesPeak))

	// client tails and peak: reported, not gated
	set("client.rot_p99_us", pct(light.rotNs, 99)/1e3)
	set("client.put_p99_us", pct(light.putNs, 99)/1e3)
	set("client.loaded_rot_p50_us", pct(loaded.rotNs, 50)/1e3)
	set("client.loaded_put_p50_us", pct(loaded.putNs, 50)/1e3)
	set("client.loaded_rot_p99_us", pct(loaded.rotNs, 99)/1e3)
	set("client.loaded_put_p99_us", pct(loaded.putNs, 99)/1e3)
	set("client.peak_ops_per_s", burst.rate())

	// ledger
	for k, op := range []string{"rot", "put"} {
		for kind, layer := range ledgerLayers {
			set("ledger."+op+"_self_us."+layer, led.selfUs[k][kind])
		}
		set("ledger."+op+"_residual_frac", led.residual[k])
	}
	logf("ledger: rot p50 %.1f us over %d ops, put p50 %.1f us over %d ops",
		pct(light.rotNs, 50)/1e3, led.ops[0], pct(light.putNs, 50)/1e3, led.ops[1])

	set("cluster.start_s", m.setup.start.Seconds())
	set("cluster.preload_s", m.setup.preload.Seconds())
	set("harness.warmup_s", m.setup.warmup.Seconds())
	set("harness.gen_us_per_op", m.genPerOp)
	if off.ops() > 0 {
		set("harness.trace_overhead_frac", 1-loaded.rate()/off.rate())
	}

	m.verify()
	if sp.Durable {
		r.close()
		us, err := recoverCost(m.dataDir)
		if err != nil {
			return err
		}
		set("wal.recover_us_per_krec", us)
	}
	return nil
}

// verify is the untimed correctness phase: traffic recorded through
// check.History must show no violation and both DCs must converge.
func (m *run) verify() {
	r, res := m.r, &m.res
	h := check.New()
	ver := runPhase(r.sessions[:numDCs*loadedPerDC], 0, m.o.verify, 0, h, nil, nil)
	m.count(ver.attempted, ver.failed)
	res.violations = h.Violations()
	for _, v := range res.violations {
		logf("violation: %v", v)
	}
	conv := converged(r.sessions[0], r.sessions[loadedPerDC], m.ks, 5*time.Second)
	puts, reads := h.Ops()
	logf("verify: %d puts, %d reads checked, %d violations, converged=%v", puts, reads, len(res.violations), conv)
	res.Correct = res.Failed == 0 && len(res.violations) == 0 && conv && puts > 0 && reads > 0
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func logPhase(name string, p phaseResult) {
	var b strings.Builder
	for _, r := range p.sliceRates {
		fmt.Fprintf(&b, " %.0f", r)
	}
	logf("%s op/s per %v slice:%s", name, sliceLen, b.String())
	logf("%s: %.1fs window, %d rots (p50 %.1f us, p99 %.1f us), %d puts (p50 %.1f us, p99 %.1f us), %.0f op/s, attempted %d, failed %d, samples dropped %d",
		name, p.window.Seconds(), len(p.rotNs), pct(p.rotNs, 50)/1e3, pct(p.rotNs, 99)/1e3,
		len(p.putNs), pct(p.putNs, 50)/1e3, pct(p.putNs, 99)/1e3,
		p.rate(), p.attempted, p.failed, p.dropped)
}

// logPins prints the environment a number depends on.
func logPins(o runOpts) {
	load, _ := os.ReadFile("/proc/loadavg")
	logf("workload %s seed %d seconds %g trace %v | %s GOMAXPROCS=%d nproc=%d GOGC=%q loadavg %s| scratch %s (%s)",
		o.spec.Name, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		os.Getenv("GOGC"), strings.TrimSuffix(string(load), "\n"), o.scratch, fsType(o.scratch))
}
