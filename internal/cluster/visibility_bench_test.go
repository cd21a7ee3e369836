package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// visTap sits between the nodes and the network (servers and stabilizers
// take any transport.Network) and stamps the hand-overs a DC0 write passes on
// its way to being readable in DC1, at the DC1 replica of its partition and
// at DC1's stabilizer.
type visTap struct {
	transport.Network
	reports, bcasts atomic.Uint64 // VVReports sent by partitions, GSSBcasts sent by stabilizers

	mu       sync.Mutex
	part     int        // the DC1 partition being watched
	ts       uint64     // the probe's timestamp; 0 = no probe in flight, ^0 = not yet known
	early    []tapEvent // the hand-overs seen while ts was not yet known, in order
	stamp    [numStages]time.Time
	reported bool       // the stabilizer has been handed the report that carries ts
	answer   vclock.Vec // the first GSS it sent to the replica after that
}

// tapEvent is one hand-over at the watched replica or its stabilizer: what
// it was, when, and how far into DC0's timeline the message reaches.
type tapEvent struct {
	kind   int
	at     time.Time
	covers uint64     // RepBatch.HighTS, VVReport.VV[0] or GSSBcast.GSS[0]
	gss    vclock.Vec // a broadcast's GSS
}

// The hand-over kinds a probe's stamps are derived from.
const (
	batchIn   = iota // the replica handled a RepBatch from DC0
	reportOut        // the replica sent a VVReport
	reportIn         // DC1's stabilizer handled the replica's VVReport
	bcastOut         // DC1's stabilizer sent a GSSBcast to the replica
	bcastIn          // the replica handled a GSSBcast
)

// The hand-overs, in pipeline order. Each is stamped once per probe.
const (
	atRemoteVV = iota // the replica handled a RepBatch from DC0 whose cut covers ts
	inReport          // the replica sent a VVReport whose VV[0] covers ts
	answered          // the replica handled the first broadcast sent after that report reached the stabilizer
	inGSS             // the replica handled a broadcast whose GSS[0] covers ts
	numStages
)

// watch starts a probe on part's replica. Until cover gives it the PUT's
// timestamp, the hand-overs are kept, not judged: the PUT's ack can take
// longer to reach the writer than its replication takes to reach DC1.
func (v *visTap) watch(part int) {
	v.mu.Lock()
	v.part, v.ts, v.early, v.stamp, v.reported, v.answer = part, ^uint64(0), v.early[:0], [numStages]time.Time{}, false, nil
	v.mu.Unlock()
}

// cover names the probe's timestamp and stamps the hand-overs seen since
// watch that already carried it, each at the time it happened.
func (v *visTap) cover(ts uint64) {
	v.mu.Lock()
	v.ts = ts
	for _, e := range v.early {
		v.apply(e)
	}
	v.early = v.early[:0]
	v.mu.Unlock()
}

// record judges e against the probe, or keeps it until cover while the
// probe's timestamp is not yet known. Call it with v.mu held.
func (v *visTap) record(e tapEvent) {
	switch v.ts {
	case 0:
	case ^uint64(0):
		v.early = append(v.early, e)
	default:
		v.apply(e)
	}
}

// apply advances the probe's stamps by one hand-over.
func (v *visTap) apply(e tapEvent) {
	switch e.kind {
	case batchIn:
		if e.covers >= v.ts {
			v.mark(atRemoteVV, e.at)
		}
	case reportOut:
		if e.covers >= v.ts {
			v.mark(inReport, e.at)
		}
	case reportIn:
		if e.covers >= v.ts {
			v.reported = true
		}
	case bcastOut:
		if v.reported && v.answer == nil {
			v.answer = e.gss
		}
	case bcastIn:
		if v.answer != nil && e.gss.Equal(v.answer) {
			v.mark(answered, e.at)
		}
		if e.covers >= v.ts {
			v.mark(inGSS, e.at)
		}
	}
}

// handled sees a message on its way into addr's handler, sent one on its way
// out of addr's node. Only stabilization and replication traffic takes the
// lock; client operations pass untouched.
func (v *visTap) handled(addr wire.Addr, m wire.Message) {
	switch m.(type) {
	case *wire.RepBatch, *wire.VVReport, *wire.GSSBcast:
	default:
		return
	}
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	replica := addr == wire.ServerAddr(1, v.part)
	switch m := m.(type) {
	case *wire.RepBatch:
		if replica && m.SrcDC == 0 {
			v.record(tapEvent{kind: batchIn, at: now, covers: m.HighTS})
		}
	case *wire.VVReport:
		if addr == wire.StabilizerAddr(1) && int(m.Part) == v.part {
			v.record(tapEvent{kind: reportIn, at: now, covers: m.VV[0]})
		}
	case *wire.GSSBcast:
		if replica {
			v.record(tapEvent{kind: bcastIn, at: now, covers: m.GSS[0], gss: m.GSS.Clone()})
		}
	}
}

func (v *visTap) sent(addr, dst wire.Addr, m wire.Message) {
	switch m := m.(type) {
	case *wire.VVReport:
		v.reports.Add(1)
		now := time.Now()
		v.mu.Lock()
		if addr == wire.ServerAddr(1, v.part) {
			v.record(tapEvent{kind: reportOut, at: now, covers: m.VV[0]})
		}
		v.mu.Unlock()
	case *wire.GSSBcast:
		v.bcasts.Add(1)
		now := time.Now()
		v.mu.Lock()
		if dst == wire.ServerAddr(1, v.part) {
			v.record(tapEvent{kind: bcastOut, at: now, gss: m.GSS.Clone()})
		}
		v.mu.Unlock()
	}
}

func (v *visTap) mark(stage int, at time.Time) {
	if v.stamp[stage].IsZero() {
		v.stamp[stage] = at
	}
}

func (v *visTap) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	n, err := v.Network.Attach(addr, transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
			v.handled(addr, m)
			h.Handle(n, src, reqID, m)
		}))
	return tapNode{n, v}, err
}

type tapNode struct {
	transport.Node
	v *visTap
}

func (n tapNode) Send(dst wire.Addr, m wire.Message) error {
	n.v.sent(n.Addr(), dst, m)
	return n.Node.Send(dst, m)
}

// TestVisTapKeepsHandOversBeforeCover: a write's replication can reach DC1
// before its ack reaches the writer, so hand-overs the tap sees between
// watch and cover must still stamp the probe once cover names its
// timestamp — those that carry it, and only those.
func TestVisTapKeepsHandOversBeforeCover(t *testing.T) {
	var v visTap
	v.watch(2)
	replica, stab := wire.ServerAddr(1, 2), wire.StabilizerAddr(1)
	v.handled(replica, &wire.RepBatch{SrcDC: 0, HighTS: 90}) // below the probe: no stamp
	covered := time.Now()
	v.handled(replica, &wire.RepBatch{SrcDC: 0, HighTS: 120})
	v.sent(replica, stab, &wire.VVReport{Part: 2, VV: vclock.Vec{120, 7}})
	v.handled(stab, &wire.VVReport{Part: 2, VV: vclock.Vec{120, 7}})
	gss := vclock.Vec{120, 7}
	v.sent(stab, replica, &wire.GSSBcast{GSS: gss})
	v.handled(replica, &wire.GSSBcast{GSS: gss})
	if !v.stamp[atRemoteVV].IsZero() {
		t.Fatal("a hand-over was stamped before the probe's timestamp was known")
	}
	v.cover(100)
	for stage, at := range v.stamp {
		if at.IsZero() {
			t.Errorf("hand-over %d not stamped", stage)
		} else if at.Before(covered) || at.After(time.Now()) {
			t.Errorf("hand-over %d stamped at %v, not when it happened", stage, at)
		}
	}
	if len(v.early) != 0 {
		t.Errorf("%d hand-overs still kept after cover", len(v.early))
	}
}

// visRow is one BenchmarkVisibility run as written to $BENCH_VIS_JSON, in
// the shape of the committed BENCH_vis.json's "visibility" rows (which adds
// the parent commit's row, the end-to-end pairs and the traced layer series).
type visRow struct {
	Probes    int     `json:"probes"`
	VisP50Ms  float64 `json:"vis_p50_ms"`  // sequential put-then-poll: the gated metric's method
	VisMeanMs float64 `json:"vis_mean_ms"` // puts at a random offset in the period
	// StageMs are mean ages over the random-offset probes, each from the
	// hand-over before it; with the poll they sum to VisMeanMs.
	StageMs struct {
		PutToRemoteVV       float64 `json:"put_to_remote_vv"`      // replication cut + WAN hop
		RemoteVVToReport    float64 `json:"remote_vv_to_report"`   // the replica's own report tick
		ReportToBroadcast   float64 `json:"report_to_broadcast"`   // report hop + the stabilizer + broadcast hop
		BroadcastToCovering float64 `json:"broadcast_to_covering"` // whole periods more while a sibling's VV[0] trails ts
		CoveringToRead      float64 `json:"covering_to_read"`      // the reader's poll
	} `json:"stage_ms"`
	ReportsPerS    float64            `json:"reports_per_s"`
	BroadcastsPerS map[string]float64 `json:"broadcasts_per_s"` // by trigger, plus "all" as counted on the wire
	// RepMsgsPerS is the replication stream's traffic, RepBatch and RepAck
	// frames per second across every partition, as the network counts them
	// for kv_transport_sent_msgs_total{type=...}.
	RepMsgsPerS map[string]float64 `json:"rep_msgs_per_s"`
}

// BenchmarkVisibility measures the visibility pipeline of Contrarian on the
// gated benchmark's topology (2 DCs × 4 partitions, transport.DefaultLatency,
// ±1 ms clock skew): b.N probes as the gated vis_p50_ms takes them — a DC0
// session puts, a DC1 session polls until it reads the value, the next put
// follows at once, so every put is phase-locked to the previous broadcast —
// then b.N probes whose puts start at a random offset in the stabilization
// period, with the age of each hand-over in between. Run it with
// -benchtime Nx; with BENCH_VIS_JSON set the row is also written there.
func BenchmarkVisibility(b *testing.B) {
	cfg := Config{Protocol: Contrarian, DCs: 2, Partitions: 4}
	local := transport.NewLocal(transport.DefaultLatency())
	defer local.Close()
	tap := &visTap{Network: local}
	reg := metrics.NewRegistry()
	rng := rand.New(rand.NewSource(1 + 7)) // the skews benchmark/rig.go draws
	var servers []Server
	for dc := 0; dc < cfg.DCs; dc++ {
		for p := 0; p < cfg.Partitions; p++ {
			skew := time.Duration(rng.Int63n(int64(2*time.Millisecond))) - time.Millisecond
			s, err := cfg.NewServer(dc, p, skew, nil, tap)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			servers = append(servers, s)
		}
		st, err := cfg.NewStabilizer(dc, tap)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		st.RegisterMetrics(reg, metrics.Label{Name: "dc", Value: strconv.Itoa(dc)})
		st.Start()
	}
	for _, s := range servers {
		s.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(b.N)*200*time.Millisecond+30*time.Second)
	defer cancel()
	var clis [2]Client // DC0's writer and DC1's reader
	for dc := range clis {
		mux, err := local.AttachMux(wire.ClientAddr(dc, muxClientID), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer mux.Close()
		if clis[dc], err = cfg.NewClient(dc, 1, 0, mux); err != nil {
			b.Fatal(err)
		}
		defer clis[dc].Close()
	}
	writer, reader := clis[0], clis[1]
	if err := writer.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	if err := reader.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // a first GSS

	owner := ring.New(cfg.Partitions)
	seq := 0
	// probe puts a fresh value in DC0 and polls DC1 until it is read; it
	// returns put-ack → read, and the tap's stamps relative to the ack.
	probe := func() (vis time.Duration, stages [numStages]time.Duration) {
		seq++
		key := fmt.Sprintf("vis-%d", seq%64)
		val := []byte(strconv.Itoa(seq))
		tap.watch(owner.Owner(key))
		ts, err := writer.Put(ctx, key, val)
		if err != nil {
			b.Fatal(err)
		}
		acked := time.Now()
		tap.cover(ts)
		for {
			kvs, err := reader.ROT(ctx, []string{key})
			if err != nil {
				b.Fatal(err)
			}
			if bytes.Equal(kvs[0].Value, val) {
				break
			}
		}
		vis = time.Since(acked)
		tap.mu.Lock()
		defer tap.mu.Unlock()
		for i, at := range tap.stamp {
			if at.IsZero() {
				b.Fatalf("probe %d read in DC1 before hand-over %d was seen", seq, i)
			}
			stages[i] = at.Sub(acked)
		}
		tap.ts = 0
		return vis, stages
	}

	for i := 0; i < 20; i++ {
		probe()
	}
	b.ResetTimer()
	sent := &local.Stats().Sent
	repBatches, repAcks := sent[wire.TRepBatch].Msgs.Load(), sent[wire.TRepAck].Msgs.Load()
	before, reports, bcasts, start := stabilizerBroadcasts(b, reg), tap.reports.Load(), tap.bcasts.Load(), time.Now()
	locked := make([]time.Duration, b.N)
	for i := range locked {
		locked[i], _ = probe()
	}
	var visSum time.Duration
	var stageSum [numStages]time.Duration
	for i := 0; i < b.N; i++ {
		// Sleeps end on the host's timer tick; the spin adds the sub-tick part.
		time.Sleep(time.Duration(rng.Int63n(int64(5 * time.Millisecond))))
		for spin := time.Now().Add(time.Duration(rng.Int63n(int64(time.Millisecond)))); time.Now().Before(spin); {
		}
		vis, stages := probe()
		visSum += vis
		for s := range stages {
			stageSum[s] += stages[s]
		}
	}
	b.StopTimer()
	secs := time.Since(start).Seconds()
	after := stabilizerBroadcasts(b, reg)

	ms := func(d time.Duration) float64 { return float64(d) / float64(b.N) / 1e6 }
	row := visRow{Probes: b.N}
	slices.Sort(locked)
	row.VisP50Ms = float64(locked[(len(locked)-1)/2]) / 1e6
	row.VisMeanMs = ms(visSum)
	row.StageMs.PutToRemoteVV = ms(stageSum[atRemoteVV])
	row.StageMs.RemoteVVToReport = ms(stageSum[inReport] - stageSum[atRemoteVV])
	row.StageMs.ReportToBroadcast = ms(stageSum[answered] - stageSum[inReport])
	row.StageMs.BroadcastToCovering = ms(stageSum[inGSS] - stageSum[answered])
	row.StageMs.CoveringToRead = ms(visSum - stageSum[inGSS])
	row.ReportsPerS = float64(tap.reports.Load()-reports) / secs
	row.BroadcastsPerS = map[string]float64{
		"all": float64(tap.bcasts.Load()-bcasts) / float64(cfg.Partitions) / secs,
	}
	for trigger, n := range after {
		row.BroadcastsPerS[trigger] = (n - before[trigger]) / secs
	}
	row.RepMsgsPerS = map[string]float64{
		"RepBatch": float64(sent[wire.TRepBatch].Msgs.Load()-repBatches) / secs,
		"RepAck":   float64(sent[wire.TRepAck].Msgs.Load()-repAcks) / secs,
	}
	b.ReportMetric(0, "ns/op") // two phases of b.N probes: the per-probe numbers below are the result
	b.ReportMetric(row.VisP50Ms, "vis-p50-ms")
	b.ReportMetric(row.VisMeanMs, "vis-mean-ms")
	b.ReportMetric(row.StageMs.PutToRemoteVV, "put→vv-ms")
	b.ReportMetric(row.StageMs.RemoteVVToReport, "vv→report-ms")
	b.ReportMetric(row.StageMs.ReportToBroadcast, "report→bcast-ms")
	b.ReportMetric(row.StageMs.BroadcastToCovering, "bcast→covering-ms")
	b.ReportMetric(row.ReportsPerS, "reports/s")
	b.ReportMetric(row.BroadcastsPerS["all"], "bcasts/s")
	b.ReportMetric(row.BroadcastsPerS["round"], "round-bcasts/s")
	b.ReportMetric(row.RepMsgsPerS["RepBatch"], "rep-batches/s")
	b.ReportMetric(row.RepMsgsPerS["RepAck"], "rep-acks/s")
	if path := os.Getenv("BENCH_VIS_JSON"); path != "" {
		data, err := json.MarshalIndent(map[string]any{"visibility": map[string]any{"change": row}}, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			b.Fatalf("write %s: %v", path, err)
		}
	}
}

// stabilizerBroadcasts sums kv_stabilizer_broadcasts_total over the DCs, by
// trigger, from the registry's exposition (its only reader).
func stabilizerBroadcasts(b *testing.B, reg *metrics.Registry) map[string]float64 {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		b.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "kv_stabilizer_broadcasts_total{") {
			continue
		}
		_, trigger, _ := strings.Cut(line, `trigger="`)
		trigger, value, _ := strings.Cut(trigger, `"} `)
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			b.Fatalf("unparsable series %q", line)
		}
		out[trigger] += n
	}
	return out
}
