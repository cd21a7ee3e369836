package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Stabilizer is one DC's stabilization service. Partitions report their
// version vectors — on every replication batch that moves one, and at least
// once per stabilization period; the stabilizer aggregates the entry-wise
// minimum — the Global Stable Snapshot — and broadcasts it back: once every
// partition has reported since the last broadcast (a round), and from the
// period timer — the catch-all — when no round closes (a lost report, a
// partition that is down).
//
// The paper describes partitions exchanging VVs directly; a depth-1
// aggregation tree (this service) computes the identical GSS with O(N)
// messages per round instead of O(N²) (README, "Visibility pipeline").
type Stabilizer struct {
	dc     int
	parts  int
	period time.Duration
	node   transport.Node
	now    func() time.Time // the arrival clock; tests script it

	mu    sync.Mutex
	vvs   []vclock.Vec // each partition's latest report (nil before the first) ...
	at    []time.Time  // ... when it arrived ...
	fresh []bool       // ... and whether it arrived since the last broadcast
	gss   vclock.Vec

	due   time.Time   // the catch-all stays silent before this
	timer *time.Timer // wakes the loop at due

	rounds, ticks metrics.Counter // broadcasts, by trigger
	rejected      metrics.Counter // messages dropped as malformed
	reportAge     atomic.Int64    // ns: oldest report in the last broadcast

	stop     chan struct{}
	stopOnce sync.Once      // a second Close must not close stop again
	wg       sync.WaitGroup // the catch-all loop, if Start ran
}

// NewStabilizer attaches a stabilization service for dc to net.
func NewStabilizer(dc, numParts, numDCs int, period time.Duration, net transport.Network) (*Stabilizer, error) {
	if period <= 0 {
		period = stabilizePeriod
	}
	st := &Stabilizer{
		dc:     dc,
		parts:  numParts,
		period: period,
		now:    time.Now,
		vvs:    make([]vclock.Vec, numParts),
		at:     make([]time.Time, numParts),
		fresh:  make([]bool, numParts),
		gss:    vclock.New(numDCs),
		timer:  time.NewTimer(period),
		stop:   make(chan struct{}),
	}
	node, err := net.Attach(wire.StabilizerAddr(dc), st)
	if err != nil {
		return nil, err
	}
	st.node = node
	return st, nil
}

// Start launches the catch-all loop.
func (st *Stabilizer) Start() {
	st.wg.Add(1)
	go st.loop()
}

// Close stops the service; on a stabilizer that was never started it
// returns at once.
func (st *Stabilizer) Close() error {
	st.stopOnce.Do(func() { close(st.stop) })
	st.wg.Wait()
	return st.node.Close()
}

// GSS returns the latest aggregated Global Stable Snapshot.
func (st *Stabilizer) GSS() vclock.Vec {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gss.Clone()
}

// Handle receives partition VV reports. One from a partition the DC does not
// have, or with a vector of another width, is dropped like any other message:
// folded in, it would over-advance the GSS — the one unsafe direction.
//
// The report closes a round when every partition has delivered a report since
// the last broadcast: a second report from one partition replaces its vector
// but does not count twice. Partitions report as replication batches move
// their VVs, out of phase with each other, so a round is one fresh report
// from each, closed by the last of them to arrive.
func (st *Stabilizer) Handle(_ transport.Node, _ wire.From, _ uint64, m wire.Message) {
	r, ok := m.(*wire.VVReport)
	if !ok || r.Part >= uint32(st.parts) || len(r.VV) != len(st.gss) {
		st.rejected.Add(1)
		return
	}
	st.mu.Lock()
	now := st.now()
	st.vvs[r.Part], st.at[r.Part] = r.VV, now
	st.fresh[r.Part] = true
	var g vclock.Vec
	if !slices.Contains(st.fresh, false) {
		g = st.aggregate(now, true)
	}
	st.mu.Unlock()
	st.broadcast(g)
}

func (st *Stabilizer) loop() {
	defer st.wg.Done()
	for {
		select {
		case <-st.stop:
			return
		case <-st.timer.C:
			st.tick()
		}
	}
}

// tick is the catch-all trigger; a round that closed while the timer was
// firing has moved due and re-armed the timer, and leaves it nothing to do.
func (st *Stabilizer) tick() {
	st.mu.Lock()
	var g vclock.Vec
	if now := st.now(); !now.Before(st.due) {
		g = st.aggregate(now, false)
	}
	st.mu.Unlock()
	st.broadcast(g)
}

// aggregate computes the GSS for either trigger — the min over every
// partition's latest vector, kept monotone; nil until all have reported — and
// re-arms the catch-all: a period after its own firing, half a period more
// after a closed round so that it does not race the next. A broadcast makes
// every report stale. Callers hold st.mu.
func (st *Stabilizer) aggregate(now time.Time, round bool) vclock.Vec {
	wait, sent := st.period, &st.ticks
	if round {
		wait, sent = st.period*3/2, &st.rounds
	}
	st.due = now.Add(wait)
	st.timer.Reset(wait)
	var agg vclock.Vec
	oldest := now
	for p, vv := range st.vvs {
		if vv == nil {
			return nil
		}
		if agg == nil {
			agg = vv.Clone()
		} else {
			agg.MinInto(vv)
		}
		if st.at[p].Before(oldest) {
			oldest = st.at[p]
		}
	}
	clear(st.fresh)
	st.gss.MaxInto(agg)
	sent.Add(1)
	st.reportAge.Store(int64(now.Sub(oldest)))
	return st.gss.Clone()
}

// broadcast sends g, unless nil, to every partition — outside st.mu, since a
// send may block; partitions merge with max, so overtaking is harmless.
func (st *Stabilizer) broadcast(g vclock.Vec) {
	for p := 0; g != nil && p < st.parts; p++ {
		_ = st.node.Send(wire.ServerAddr(st.dc, p), &wire.GSSBcast{GSS: g})
	}
}

// RegisterMetrics exposes the broadcast counters by trigger, the age of the
// oldest report in the last broadcast (how long a report waits here for its
// round) and the malformed reports dropped. Labels name the DC.
func (st *Stabilizer) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	const help = "GSS broadcasts by trigger: a report that closed a round, or the catch-all period timer."
	by := func(trigger string) []metrics.Label {
		return slices.Concat(labels, []metrics.Label{{Name: "trigger", Value: trigger}})
	}
	r.Counter("kv_stabilizer_broadcasts_total", help, &st.rounds, by("round")...)
	r.Counter("kv_stabilizer_broadcasts_total", help, &st.ticks, by("tick")...)
	r.GaugeFunc("kv_stabilizer_report_age_seconds",
		"Age of the oldest partition report folded into the last GSS broadcast.",
		func() float64 { return time.Duration(st.reportAge.Load()).Seconds() }, labels...)
	r.Counter("kv_stabilizer_reports_rejected_total",
		"Messages dropped: not a report, from a partition the DC does not have, or with a vector of the wrong width.",
		&st.rejected, labels...)
}
