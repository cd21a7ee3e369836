package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The round-rule tests drive a Stabilizer with a scripted arrival clock and
// a recording node: no goroutine, no timer, no sleep. stabRig.at plays the
// catch-all timer — it fires tick() at every due instant on the way to the
// next arrival, which is exactly when loop() would.

const testPeriod = 5 * time.Millisecond

// bcast is one recorded broadcast: when, what, and by which trigger.
type bcast struct {
	at    time.Time
	gss   vclock.Vec
	round bool // closed by a report, not served by the catch-all
}

type stabRig struct {
	t      *testing.T
	st     *Stabilizer
	clock  time.Time
	epoch  time.Time
	sends  int     // GSSBcast messages, all destinations
	ticks  uint64  // catch-all broadcasts recorded so far
	bcasts []bcast // one per broadcast (the copy sent to partition 0)
}

// recNet hands the stabilizer a node that records its sends into the rig.
type recNet struct{ r *stabRig }

func (n recNet) Attach(wire.Addr, transport.Handler) (transport.Node, error) { return recNode(n), nil }
func (n recNet) AttachMux(wire.Addr, int) (transport.Mux, error)             { return nil, nil }
func (n recNet) Close() error                                                { return nil }

type recNode struct{ r *stabRig }

func (n recNode) Addr() wire.Addr { return wire.StabilizerAddr(0) }
func (n recNode) Send(dst wire.Addr, m wire.Message) error {
	g, ok := m.(*wire.GSSBcast)
	if !ok {
		n.r.t.Errorf("stabilizer sent a %T", m)
		return nil
	}
	n.r.sends++
	if dst == wire.ServerAddr(0, 0) {
		// The trigger's counter moved before the send.
		round := true
		if ticks := n.r.st.ticks.Load(); ticks > n.r.ticks {
			n.r.ticks, round = ticks, false
		}
		n.r.bcasts = append(n.r.bcasts, bcast{at: n.r.clock, gss: g.GSS.Clone(), round: round})
	}
	return nil
}
func (n recNode) SendTo(wire.From, wire.Message) error { return nil }
func (n recNode) Call(context.Context, wire.Addr, wire.Message) (wire.Message, error) {
	return nil, transport.ErrNoRoute
}
func (n recNode) Respond(wire.From, uint64, wire.Message) error { return nil }
func (n recNode) Close() error                                  { return nil }

func newStabRig(t *testing.T, parts, dcs int) *stabRig {
	t.Helper()
	r := &stabRig{t: t, epoch: time.Unix(1000, 0)}
	r.clock = r.epoch
	st, err := NewStabilizer(0, parts, dcs, testPeriod, recNet{r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.now = func() time.Time { return r.clock }
	st.due = r.clock.Add(testPeriod)
	r.st = st
	return r
}

// at moves the clock to epoch+d, firing the catch-all at every instant it
// falls due on the way.
func (r *stabRig) at(d time.Duration) {
	to := r.epoch.Add(d)
	if to.Before(r.clock) {
		r.t.Fatalf("clock moved backwards: %v -> %v", r.clock.Sub(r.epoch), d)
	}
	for !r.st.due.After(to) {
		r.clock = r.st.due
		r.st.tick()
	}
	r.clock = to
}

func (r *stabRig) report(part int, vv vclock.Vec) {
	r.st.Handle(nil, wire.From{}, 0, &wire.VVReport{Part: uint32(part), VV: vv})
}

// tickVV is partition p's vector at tick k: the min over all partitions is
// {1000k, 1000k} exactly when every vector folded in is from tick k.
func tickVV(k, p int) vclock.Vec {
	return vclock.Vec{uint64(1000*k + p), uint64(1000*k + 7*p)}
}

// wantRoundAt asserts that the newest broadcast is the n-th, went out at
// epoch+d by a closed round, and folds in tick k's vectors only.
func (r *stabRig) wantRoundAt(n int, d time.Duration, k int) {
	r.t.Helper()
	if len(r.bcasts) != n {
		r.t.Fatalf("tick %d: %d broadcasts so far, want %d", k, len(r.bcasts), n)
	}
	b := r.bcasts[n-1]
	want := vclock.Vec{uint64(1000 * k), uint64(1000 * k)}
	if !b.round || !b.at.Equal(r.epoch.Add(d)) || !b.gss.Equal(want) {
		r.t.Fatalf("tick %d: broadcast %d at %v (round=%v) GSS %v; want a round closed at %v with %v",
			k, n, b.at.Sub(r.epoch), b.round, b.gss, d, want)
	}
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// (1) In-phase reporters, every arrival order: one broadcast per tick, on the
// last arrival — the one that completes the set of fresh reports — from that
// tick's vectors only; the catch-all never fires.
func TestStabilizerRoundClosesOnLastArrival(t *testing.T) {
	const parts, gap = 4, 30 * time.Microsecond
	orders := permutations(parts)
	if len(orders) != 24 {
		t.Fatalf("%d orders", len(orders))
	}
	for _, order := range orders {
		r := newStabRig(t, parts, 2)
		for k := 1; k <= 50; k++ {
			base := time.Duration(k) * testPeriod
			for i, p := range order {
				r.at(base + time.Duration(i)*gap)
				r.report(p, tickVV(k, p))
			}
			r.wantRoundAt(k, base+(parts-1)*gap, k)
		}
		if n := r.st.ticks.Load(); n != 0 || r.sends != 50*parts {
			t.Fatalf("order %v: %d catch-all broadcasts, %d messages; want 0 and %d", order, n, r.sends, 50*parts)
		}
	}
}

// (2) A partition that reports again before the round closes — a burst —
// does not count twice: the round still waits for every partition, closes on the last of
// them, and folds in the repeat's newer vector. Counting arrivals instead of
// partitions closes each round on partition 1's repeat, over partition 3's
// vector of the tick before.
func TestStabilizerBurstDoesNotDoubleBroadcast(t *testing.T) {
	const parts, gap = 4, 30 * time.Microsecond
	r := newStabRig(t, parts, 2)
	for k := 1; k <= 10; k++ {
		base := time.Duration(k) * testPeriod
		half := tickVV(k, 0)
		half[0] -= 500
		steps := []struct {
			part int
			vv   vclock.Vec
		}{{0, half}, {0, tickVV(k, 0)}, {1, tickVV(k, 1)}, {1, tickVV(k, 1)}, {2, tickVV(k, 2)}, {3, tickVV(k, 3)}}
		for i, st := range steps {
			r.at(base + time.Duration(i)*gap)
			r.report(st.part, st.vv)
			if i < len(steps)-1 && len(r.bcasts) != k-1 {
				t.Fatalf("tick %d: a round closed after %d reports from %d partitions", k, i+1, st.part+1)
			}
		}
		r.wantRoundAt(k, base+time.Duration(len(steps)-1)*gap, k)
	}
	if ticks := r.st.ticks.Load(); ticks != 0 {
		t.Fatalf("%d catch-all broadcasts", ticks)
	}
}

// (3) A lost report delays one round, after which rounds close again: it
// does not latch the rounds onto stale vectors.
func TestStabilizerLostReportDoesNotLatch(t *testing.T) {
	const parts, lost = 4, 5
	// Periodic reporters in phase (the report floor alone): the catch-all
	// serves the lost tick with partition 0's vector of the tick before, and
	// the next tick closes on its last arrival again. The catch-all's
	// broadcast makes the others' reports stale too; if it did not, the next
	// tick's first arrival would complete the set and close the round over
	// the others' period-old vectors, and so would every tick after it.
	t.Run("periodic", func(t *testing.T) {
		const gap = 30 * time.Microsecond
		r := newStabRig(t, parts, 2)
		for k := 1; k <= 20; k++ {
			base := time.Duration(k) * testPeriod
			for p := 0; p < parts; p++ {
				if k == lost && p == 0 {
					continue
				}
				r.at(base + time.Duration(p)*gap)
				r.report(p, tickVV(k, p))
			}
			if k == lost {
				if len(r.bcasts) != lost-1 {
					t.Fatalf("a round closed on tick %d without partition 0's report", k)
				}
				continue
			}
			// After the lost tick the catch-all's broadcast stands in its
			// place in the count.
			r.wantRoundAt(k, base+(parts-1)*gap, k)
		}
		// The catch-all fired once, a period and a half after tick lost-1's
		// round, still with partition 0's vector of that tick.
		b, wantAt := r.bcasts[lost-1], time.Duration(lost-1)*testPeriod+(parts-1)*gap+testPeriod*3/2
		if r.st.ticks.Load() != 1 || b.round || !b.at.Equal(r.epoch.Add(wantAt)) ||
			!b.gss.Equal(vclock.Vec{uint64(1000 * (lost - 1)), uint64(1000 * (lost - 1))}) {
			t.Fatalf("%d catch-all rounds; broadcast %d at %v (round=%v) GSS %v; want one, at %v",
				r.st.ticks.Load(), lost, b.at.Sub(r.epoch), b.round, b.gss, wantAt)
		}
	})
	// Reporters driven by replication: each reports once per stop-and-wait
	// round trip, a quarter of it apart. Each cycle's round closes on
	// partition 3's report. Partition 0's report of cycle lost never
	// arrives, so that cycle has no round; its next report closes the
	// delayed one, and from then on every cycle's round closes on partition
	// 0's report over the others' vectors of the cycle before — still one
	// round per round trip, none older than one, and no catch-all.
	t.Run("replicated", func(t *testing.T) {
		const trip, cycles = testPeriod * 11 / 25, 20 // 2.2 ms
		r := newStabRig(t, parts, 2)
		for j := 1; j <= cycles; j++ {
			for p := 0; p < parts; p++ {
				if j == lost && p == 0 {
					continue
				}
				r.at(time.Duration(j)*trip + time.Duration(p)*trip/parts)
				r.report(p, tickVV(j, p))
			}
		}
		if n := r.st.ticks.Load(); n != 0 || len(r.bcasts) != cycles-1 {
			t.Fatalf("%d broadcasts, %d of them catch-alls; want %d rounds", len(r.bcasts), n, cycles-1)
		}
		for i, b := range r.bcasts {
			j, at, want := i+1, time.Duration(i+1)*trip+(parts-1)*trip/parts, tickVV(i+1, 0)
			if j >= lost {
				j = i + 2
				at, want = time.Duration(j)*trip, tickVV(j-1, 1)
			}
			if !b.round || !b.at.Equal(r.epoch.Add(at)) || !b.gss.Equal(want) {
				t.Fatalf("broadcast %d at %v (round=%v) GSS %v; want a round at %v (cycle %d) with %v",
					i, b.at.Sub(r.epoch), b.round, b.gss, at, j, want)
			}
		}
	})
}

// (4) Periodic reporters a quarter period apart — partitions of a
// multi-process deployment started seconds apart, with only the report floor
// running: every period brings one fresh report from each, so a round closes
// every period, on the last of them, from that period's vectors only; the
// catch-all never fires.
func TestStabilizerPeriodicReportersBroadcastEveryPeriod(t *testing.T) {
	const parts, periods = 4, 40
	r := newStabRig(t, parts, 2)
	for k := 0; k < periods; k++ {
		base := time.Duration(k) * testPeriod
		for p := 0; p < parts; p++ {
			r.at(base + time.Duration(p)*testPeriod/4)
			r.report(p, tickVV(k+1, p))
		}
		r.wantRoundAt(k+1, base+(parts-1)*testPeriod/4, k+1)
	}
	if ticks := r.st.ticks.Load(); ticks != 0 {
		t.Fatalf("%d catch-all broadcasts", ticks)
	}
}

// (5) Property, over seeded random phases, cadences (the report floor's
// period, or a replication round trip), jitter, losses, duplicates and
// reordered stale reports: every broadcast is ≤ the entry-wise min over the
// partitions of the newest vector each has had accepted, broadcasts are
// monotone, and there is at most one broadcast per complete set of fresh
// reports, plus the catch-alls.
func TestStabilizerRandomArrivalsStaySafe(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts, dcs, periods := 2+rng.Intn(4), 2+rng.Intn(2), 60
		spread := testPeriod / 20 // in phase ...
		if seed%2 == 0 {
			spread = testPeriod // ... or anywhere in the period
		}
		every := testPeriod // the report floor ...
		if seed%4 >= 2 {
			every = testPeriod * 11 / 25 // ... or one report per replication round trip
		}
		type arrival struct {
			at   time.Duration
			part int
			vv   vclock.Vec
		}
		var arrivals []arrival
		for p := 0; p < parts; p++ {
			phase := time.Duration(rng.Int63n(int64(spread)))
			vv := vclock.New(dcs)
			var prev vclock.Vec
			for k := 1; k <= periods; k++ {
				for i := range vv {
					vv[i] += uint64(1 + rng.Intn(1000))
				}
				at := time.Duration(k)*every + phase + time.Duration(rng.Int63n(int64(every/10)))
				switch x := rng.Intn(20); {
				case x == 0: // lost
				case x == 1: // sent twice
					arrivals = append(arrivals, arrival{at, p, vv.Clone()}, arrival{at + time.Duration(rng.Int63n(int64(every/4))), p, vv.Clone()})
				case x == 2 && prev != nil: // overtaken by its predecessor
					arrivals = append(arrivals, arrival{at, p, vv.Clone()}, arrival{at + time.Duration(rng.Int63n(int64(every/4))), p, prev})
				default:
					arrivals = append(arrivals, arrival{at, p, vv.Clone()})
				}
				prev = vv.Clone()
			}
		}
		// Equal instants arrive in a seeded order: shuffle, then sort stably.
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		slices.SortStableFunc(arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })

		r := newStabRig(t, parts, dcs)
		newest := make([]vclock.Vec, parts) // per partition, max of what was accepted
		checked := 0
		check := func() {
			for ; checked < len(r.bcasts); checked++ {
				g := r.bcasts[checked].gss
				for p, nv := range newest {
					if nv == nil || !g.LEQ(nv) {
						t.Fatalf("seed %d: broadcast %d = %v runs ahead of partition %d's %v", seed, checked, g, p, nv)
					}
				}
				if checked > 0 && !r.bcasts[checked-1].gss.LEQ(g) {
					t.Fatalf("seed %d: broadcast %d = %v went back from %v", seed, checked, g, r.bcasts[checked-1].gss)
				}
			}
		}
		for _, a := range arrivals {
			r.at(a.at)
			check() // the catch-all firings on the way
			if newest[a.part] == nil {
				newest[a.part] = vclock.New(dcs)
			}
			newest[a.part].MaxInto(a.vv)
			r.report(a.part, a.vv)
			check()
		}
		rounds, ticks := int(r.st.rounds.Load()), int(r.st.ticks.Load())
		if limit := len(arrivals) / parts; rounds > limit || rounds+ticks != len(r.bcasts) || len(r.bcasts) < periods/2 {
			t.Fatalf("seed %d (%d partitions, spread %v, every %v): %d broadcasts, %d rounds + %d catch-alls, from %d reports; want ≤ %d rounds",
				seed, parts, spread, every, len(r.bcasts), rounds, ticks, len(arrivals), limit)
		}
		if r.sends != parts*len(r.bcasts) {
			t.Fatalf("seed %d: %d messages for %d broadcasts to %d partitions", seed, r.sends, len(r.bcasts), parts)
		}
	}
}

// A report naming a partition the DC does not have must not count towards
// "every partition has reported": with 3 partitions, reports from {0, 1, 7}
// used to publish a GSS that ignored partition 2.
func TestStabilizerIgnoresStrayPartition(t *testing.T) {
	r := newStabRig(t, 3, 2)
	for i, p := range []int{0, 1, 7} {
		r.at(testPeriod + time.Duration(i)*time.Microsecond)
		r.report(p, vclock.Vec{100, 100})
	}
	r.at(10 * testPeriod)
	if g := r.st.GSS(); g.Max() != 0 || len(r.bcasts) != 0 {
		t.Fatalf("GSS %v published (%d broadcasts) with partition 2 silent", g, len(r.bcasts))
	}
	if n := r.st.rejected.Load(); n != 1 {
		t.Fatalf("%d reports rejected, want 1", n)
	}
	r.report(2, vclock.Vec{50, 60})
	r.at(12 * testPeriod)
	if g := r.st.GSS(); !g.Equal(vclock.Vec{50, 60}) {
		t.Fatalf("GSS %v after partition 2 reported, want [50 60]", g)
	}
}

// A vector narrower than the deployment's DC count must not be folded in:
// min-ing "over the shorter prefix" left the missing entries unconstrained.
func TestStabilizerIgnoresShortVector(t *testing.T) {
	r := newStabRig(t, 2, 3)
	r.at(testPeriod)
	r.report(0, vclock.Vec{10, 20, 30})
	r.report(1, vclock.Vec{5, 5})
	r.at(10 * testPeriod)
	if g := r.st.GSS(); g.Max() != 0 || len(r.bcasts) != 0 {
		t.Fatalf("GSS %v published from a 2-entry vector in a 3-DC deployment", g)
	}
	if n := r.st.rejected.Load(); n != 1 {
		t.Fatalf("%d reports rejected, want 1", n)
	}
	r.report(1, vclock.Vec{5, 25, 5, 99})
	r.report(1, vclock.Vec{5, 25, 5})
	r.at(12 * testPeriod)
	if g := r.st.GSS(); !g.Equal(vclock.Vec{5, 20, 5}) {
		t.Fatalf("GSS %v, want [5 20 5]", g)
	}
}

// The running service, real timer and real goroutines, under -race: reports
// arriving from several goroutines while the catch-all fires.
func TestStabilizerConcurrentReports(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	const parts = 4
	st, err := NewStabilizer(0, parts, 2, time.Millisecond, net)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Start()
	done := make(chan struct{})
	for p := 0; p < parts; p++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := uint64(1); i <= 2000; i++ {
				st.Handle(nil, wire.From{}, 0, &wire.VVReport{Part: uint32(p), VV: vclock.Vec{i, i}})
			}
		}()
	}
	for p := 0; p < parts; p++ {
		<-done
	}
	if g := st.GSS(); g.Max() > 2000 {
		t.Fatalf("GSS ran ahead: %v", g)
	}
}
