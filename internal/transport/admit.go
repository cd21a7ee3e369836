// Admission control for client-facing traffic.
//
// Inbound requests each run on a worker of their own, deliberately
// unbounded for intra-cluster traffic — handlers may park on cluster state,
// and capping them recreates the deadlock the worker per request exists
// to prevent — but that design is wrong for clients: under client overload
// it grows goroutines without limit and silently queues work the server
// cannot retire. The AdmitGate closes that hole for requests whose source
// carries the Addr client flag: a token semaphore caps concurrently running
// client handlers, an overload detector keyed on the send-queue depth and
// WAL fsync-delay signals sheds earlier when the server is already falling
// behind, and shed requests are answered with a typed wire.Busy carrying a
// retry-after hint instead of being queued or dropped. Cluster-sourced
// traffic never touches the gate.
//
// With the session mux the gate is also the fairness point between
// tenants: tokens freed by finishing handlers go to parked waiters in
// round-robin order over tenants (a deficit round-robin with unit
// quantum), each tenant holding at most a small bounded park queue. One
// hot tenant can saturate its own queue and get shed; a trickle tenant's
// requests wait at worst one round of the rotation, so its goodput and
// tail latency survive a neighbouring stampede.

package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// ErrOverloaded is surfaced by clients once an operation's Busy-retry
// budget is exhausted: the server kept shedding for the whole backoff
// schedule, so the caller should treat the cluster as overloaded rather
// than retry harder.
var ErrOverloaded = errors.New("transport: server overloaded")

// DefaultRetryAfter is the Busy hint when AdmitConfig.RetryAfter is unset.
const DefaultRetryAfter = 2 * time.Millisecond

// DefaultParkPerTenant bounds each tenant's park queue when
// AdmitConfig.ParkPerTenant is unset.
const DefaultParkPerTenant = 32

// admitProbeEvery rate-limits the overload detector's signal probes: the
// admit hot path pays two atomic loads, and at most one goroutine per
// interval pays the probe functions.
const admitProbeEvery = time.Millisecond

// AdmitConfig parameterizes client admission control on a network. Limit
// is the cap on concurrently admitted client requests per attached server
// node; zero disables the gate entirely (the default, so existing
// deployments and every no-overload benchmark are untouched).
type AdmitConfig struct {
	// Limit caps concurrently running client handlers per server node.
	Limit int
	// ParkPerTenant bounds how many requests of one tenant may wait parked
	// for a token before further ones are shed (0 = DefaultParkPerTenant).
	ParkPerTenant int
	// ShedQueueFrames trips the overload detector when the transport's
	// send-queue depth reaches it (0 = signal unused). TCP only: Local has
	// no send queue (Stats.SendQueue reads 0), so the signal never trips
	// there.
	ShedQueueFrames int64
	// ShedFsyncP99 trips the overload detector when the WAL's p99 fsync
	// delay reaches it (0 = signal unused).
	ShedFsyncP99 time.Duration
	// QueueDepth probes the current send-queue depth (nil = signal unused).
	QueueDepth func() int64
	// FsyncP99 probes the current p99 fsync delay (nil = signal unused).
	FsyncP99 func() time.Duration
	// RetryAfter is the backoff hint carried in Busy responses
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration
}

// Enabled reports whether the config creates gates at Attach.
func (c AdmitConfig) Enabled() bool { return c.Limit > 0 }

// AdmitStats counts admission-control outcomes. One struct serves a whole
// network (all gated nodes share it), mirroring how Stats is per-network.
type AdmitStats struct {
	// Admitted counts client requests that took a token and ran.
	Admitted metrics.Counter
	// Shed counts client requests answered with Busy.
	Shed metrics.Counter
	// Depth tracks currently admitted client requests (level + high water).
	Depth metrics.Gauge
	// Parked tracks client requests waiting in tenant park queues.
	Parked metrics.Gauge
	// Overloaded is 1 while the queue/fsync overload detector is tripped.
	Overloaded metrics.Gauge

	// Per-tenant shed counters, created on a tenant's first shed and
	// registered lazily under kv_admission_tenant_shed_total{tenant=...}
	// once (and if) Register ran. tenantMu serializes creation; lookups on
	// the shed path are one sync.Map load.
	tenantShed sync.Map // uint16 -> *metrics.Counter
	tenantMu   sync.Mutex
	reg        *metrics.Registry
	regLabels  []metrics.Label
}

// View is a frozen copy of the admission counters.
type AdmitStatsView struct {
	Admitted   uint64
	Shed       uint64
	Depth      int64
	DepthPeak  int64
	Parked     int64
	ParkedPeak int64
	Overloaded bool
}

// View returns a frozen copy of all counters.
func (s *AdmitStats) View() AdmitStatsView {
	return AdmitStatsView{
		Admitted:   s.Admitted.Load(),
		Shed:       s.Shed.Load(),
		Depth:      s.Depth.Load(),
		DepthPeak:  s.Depth.HighWater(),
		Parked:     s.Parked.Load(),
		ParkedPeak: s.Parked.HighWater(),
		Overloaded: s.Overloaded.Load() > 0,
	}
}

// TenantShed returns how many requests of tenant t were shed.
func (s *AdmitStats) TenantShed(t uint16) uint64 {
	if c, ok := s.tenantShed.Load(t); ok {
		return c.(*metrics.Counter).Load()
	}
	return 0
}

// shedTenant counts one shed for tenant t, creating (and, when a registry
// is attached, registering) the tenant's counter on first use.
func (s *AdmitStats) shedTenant(t uint16) {
	s.Shed.Add(1)
	if c, ok := s.tenantShed.Load(t); ok {
		c.(*metrics.Counter).Add(1)
		return
	}
	s.tenantMu.Lock()
	c, ok := s.tenantShed.Load(t)
	if !ok {
		cc := new(metrics.Counter)
		if s.reg != nil {
			s.registerTenant(t, cc)
		}
		s.tenantShed.Store(t, cc)
		c = cc
	}
	s.tenantMu.Unlock()
	c.(*metrics.Counter).Add(1)
}

// registerTenant exposes one tenant's shed counter; call with tenantMu held.
func (s *AdmitStats) registerTenant(t uint16, c *metrics.Counter) {
	labels := make([]metrics.Label, 0, len(s.regLabels)+1)
	labels = append(labels, s.regLabels...)
	labels = append(labels, metrics.Label{Name: "tenant", Value: strconv.Itoa(int(t))})
	s.reg.Counter("kv_admission_tenant_shed_total", "Client requests shed, by tenant.", c, labels...)
}

// Register exposes the admission series under the given registry. Tenant
// shed counters that already exist are registered now; tenants appearing
// later register on first shed.
func (s *AdmitStats) Register(r *metrics.Registry, labels ...metrics.Label) {
	r.Counter("kv_admission_admitted_total", "Client requests admitted past the gate.", &s.Admitted, labels...)
	r.Counter("kv_admission_shed_total", "Client requests shed with a Busy retry-after response.", &s.Shed, labels...)
	r.Gauge("kv_admission_depth", "Client requests currently admitted (running handlers).", &s.Depth, labels...)
	r.Gauge("kv_admission_parked", "Client requests waiting in tenant park queues.", &s.Parked, labels...)
	r.Gauge("kv_admission_overloaded", "1 while the queue-depth/fsync-delay overload detector is tripped.", &s.Overloaded, labels...)
	s.tenantMu.Lock()
	s.reg, s.regLabels = r, labels
	s.tenantShed.Range(func(t, c any) bool {
		s.registerTenant(t.(uint16), c.(*metrics.Counter))
		return true
	})
	s.tenantMu.Unlock()
}

// AdmitOutcome is Submit's verdict on one client request.
type AdmitOutcome uint8

const (
	// AdmitGranted: a token was taken; the caller runs the request and
	// calls Release exactly once when its handler returns.
	AdmitGranted AdmitOutcome = iota
	// AdmitQueued: no token was free; the request parked and its run
	// closure fires on a fresh goroutine when a token frees up (run must
	// end in Release). The caller does nothing further.
	AdmitQueued
	// AdmitShed: the request was declined; answer it with Busy.
	AdmitShed
)

// admitWaiter is one parked request: run fires when a token is granted,
// drop when the gate closes first.
type admitWaiter struct {
	run, drop func()
}

// AdmitGate is one server node's client admission gate: a token counter, a
// hysteretic overload detector, and per-tenant park queues granted in
// round-robin order. Submit never blocks its caller — the request's own
// goroutine, in endpoint.serve — and maintains the invariant that a
// request parks only while no token is free (Release hands freed tokens to
// parked waiters before banking them).
type AdmitGate struct {
	cfg   AdmitConfig
	stats *AdmitStats

	mu     sync.Mutex
	free   int
	parked map[uint16][]admitWaiter
	rr     []uint16 // rotation of tenants with non-empty park queues
	closed bool

	// lastProbe (unix nanos) rate-limits detector probes; overloaded holds
	// the detector's current verdict between probes.
	lastProbe  atomic.Int64
	overloaded atomic.Bool
}

// NewAdmitGate builds a gate, or returns nil when cfg leaves admission
// disabled. stats must be non-nil for an enabled config.
func NewAdmitGate(cfg AdmitConfig, stats *AdmitStats) *AdmitGate {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.ParkPerTenant <= 0 {
		cfg.ParkPerTenant = DefaultParkPerTenant
	}
	return &AdmitGate{
		cfg:    cfg,
		stats:  stats,
		free:   cfg.Limit,
		parked: make(map[uint16][]admitWaiter),
	}
}

// Submit decides one client request from the given tenant. Granted: the
// caller runs it now and Releases after. Queued: the gate runs the run
// closure later, on its own goroutine, when a token frees (run must end in
// Release; drop fires instead if the gate closes first). Shed: answer Busy.
// It never blocks; endpoint.serve is its one caller.
func (g *AdmitGate) Submit(tenant uint16, run, drop func()) AdmitOutcome {
	if g.overloadedNow() {
		g.stats.shedTenant(tenant)
		return AdmitShed
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.stats.shedTenant(tenant)
		return AdmitShed
	}
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		g.stats.Admitted.Add(1)
		g.stats.Depth.Add(1)
		return AdmitGranted
	}
	q := g.parked[tenant]
	if len(q) >= g.cfg.ParkPerTenant {
		g.mu.Unlock()
		g.stats.shedTenant(tenant)
		return AdmitShed
	}
	if len(q) == 0 {
		g.rr = append(g.rr, tenant)
	}
	g.parked[tenant] = append(q, admitWaiter{run: run, drop: drop})
	g.mu.Unlock()
	g.stats.Parked.Add(1)
	return AdmitQueued
}

// Release returns an admitted request's token. If waiters are parked, the
// token passes directly to the next tenant in the rotation (so free > 0
// and parked waiters never coexist) and its run closure fires on a fresh
// goroutine; otherwise the token is banked.
func (g *AdmitGate) Release() {
	g.stats.Depth.Add(-1)
	g.mu.Lock()
	if len(g.rr) == 0 {
		if g.free < g.cfg.Limit {
			g.free++
		}
		g.mu.Unlock()
		return
	}
	t := g.rr[0]
	q := g.parked[t]
	w := q[0]
	q[0] = admitWaiter{}
	if len(q) == 1 {
		delete(g.parked, t)
		g.rr = g.rr[1:]
	} else {
		g.parked[t] = q[1:]
		// Rotate: the tenant goes to the back, so each freed token serves
		// a different tenant before any tenant is served twice.
		g.rr = append(g.rr[1:], t)
	}
	g.mu.Unlock()
	g.stats.Parked.Add(-1)
	g.stats.Admitted.Add(1)
	g.stats.Depth.Add(1)
	go w.run()
}

// Close drains the park queues, firing each waiter's drop closure. Further
// Submits shed. Call before waiting out the node's handler goroutines —
// parked waiters hold shutdown accounting their drop must release.
func (g *AdmitGate) Close() {
	g.mu.Lock()
	g.closed = true
	var drops []func()
	for t, q := range g.parked {
		for _, w := range q {
			drops = append(drops, w.drop)
		}
		delete(g.parked, t)
	}
	g.rr = nil
	g.mu.Unlock()
	for _, d := range drops {
		g.stats.Parked.Add(-1)
		if d != nil {
			d()
		}
	}
}

// RetryAfter is the base hint carried in this gate's Busy responses.
func (g *AdmitGate) RetryAfter() time.Duration { return g.cfg.RetryAfter }

// RetryAfterTenant scales the base hint by the tenant's own queue
// pressure: a tenant with a deep park queue is told to back off harder,
// one that was shed only because the detector tripped gets the base hint.
// Capped at 8× so a full queue cannot push clients to multi-second waits.
func (g *AdmitGate) RetryAfterTenant(tenant uint16) time.Duration {
	g.mu.Lock()
	depth := len(g.parked[tenant])
	g.mu.Unlock()
	scale := 1 + time.Duration(depth*7)/time.Duration(g.cfg.ParkPerTenant)
	return g.cfg.RetryAfter * scale
}

// overloadedNow evaluates the queue-depth/fsync-delay detector with
// hysteresis: it trips at a threshold and clears only once every used
// signal has fallen below half of its threshold, so admission does not
// flap at the boundary. At most one caller per admitProbeEvery pays the
// probe functions; everyone else reuses the cached verdict.
func (g *AdmitGate) overloadedNow() bool {
	now := time.Now().UnixNano()
	last := g.lastProbe.Load()
	if now-last < int64(admitProbeEvery) || !g.lastProbe.CompareAndSwap(last, now) {
		return g.overloaded.Load()
	}
	trip, clear := false, true
	if g.cfg.ShedQueueFrames > 0 && g.cfg.QueueDepth != nil {
		d := g.cfg.QueueDepth()
		if d >= g.cfg.ShedQueueFrames {
			trip = true
		}
		if d > g.cfg.ShedQueueFrames/2 {
			clear = false
		}
	}
	if g.cfg.ShedFsyncP99 > 0 && g.cfg.FsyncP99 != nil {
		p := g.cfg.FsyncP99()
		if p >= g.cfg.ShedFsyncP99 {
			trip = true
		}
		if p > g.cfg.ShedFsyncP99/2 {
			clear = false
		}
	}
	switch {
	case trip && !g.overloaded.Load():
		g.overloaded.Store(true)
		g.stats.Overloaded.Add(1)
	case clear && g.overloaded.Load():
		g.overloaded.Store(false)
		g.stats.Overloaded.Add(-1)
	}
	return g.overloaded.Load()
}

// busyHintMicros renders a gate's per-tenant retry-after hint for the wire.
func busyHintMicros(g *AdmitGate, tenant uint16) uint32 {
	return uint32(g.RetryAfterTenant(tenant) / time.Microsecond)
}

// Client-side overload handling.

// DefaultBusyRetries bounds Busy retries per client operation; exhausting
// it surfaces ErrOverloaded to the caller.
const DefaultBusyRetries = 10

// maxBusyBackoff caps the exponential backoff between Busy retries.
const maxBusyBackoff = 50 * time.Millisecond

// BusyBackoff returns the jittered exponential backoff before retry
// attempt (0-based) of an operation shed with the given hint: the hint
// doubled per attempt, capped, with uniform jitter in [1/2, 1] of that so
// synchronized clients do not re-collide.
func BusyBackoff(attempt int, hint time.Duration) time.Duration {
	if hint <= 0 {
		hint = DefaultRetryAfter
	}
	d := hint
	for i := 0; i < attempt && d < maxBusyBackoff; i++ {
		d *= 2
	}
	if d > maxBusyBackoff {
		d = maxBusyBackoff
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// AwaitRetry sleeps the attempt's jittered backoff, honoring ctx.
func AwaitRetry(ctx context.Context, attempt int, hint time.Duration) error {
	t := time.NewTimer(BusyBackoff(attempt, hint))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CallRetry is Call plus overload handling: a Busy response triggers a
// jittered exponential backoff honoring the server's retry-after hint, up
// to DefaultBusyRetries attempts; exhaustion returns ErrOverloaded. The
// backoff state is per invocation, so sessions sharing a socket back off
// independently. onRetry (may be nil) runs before each backoff, so clients
// can count retries.
func CallRetry(ctx context.Context, n Node, dst wire.Addr, m wire.Message, onRetry func()) (wire.Message, error) {
	for attempt := 0; ; attempt++ {
		resp, err := n.Call(ctx, dst, m)
		var busy *wire.Busy
		if !errors.As(err, &busy) {
			return resp, err
		}
		if attempt >= DefaultBusyRetries {
			return nil, fmt.Errorf("%w: %v still shedding after %d retries", ErrOverloaded, dst, attempt)
		}
		if onRetry != nil {
			onRetry()
		}
		if err := AwaitRetry(ctx, attempt, busy.RetryAfter()); err != nil {
			return nil, err
		}
	}
}
