package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// sendLog is a scripted network: its nodes deliver nothing and record what
// they send or answer, in order.
type sendLog struct {
	mu   sync.Mutex
	sent []sent
}

type sent struct {
	dst wire.Addr
	m   wire.Message
}

func (l *sendLog) Attach(addr wire.Addr, _ transport.Handler) (transport.Node, error) {
	return logNode{l, addr}, nil
}
func (l *sendLog) AttachMux(wire.Addr, int) (transport.Mux, error) { return nil, nil }
func (l *sendLog) Close() error                                    { return nil }

// take returns what was sent since the last take.
func (l *sendLog) take() []sent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

type logNode struct {
	l    *sendLog
	addr wire.Addr
}

func (n logNode) Addr() wire.Addr { return n.addr }
func (n logNode) Send(dst wire.Addr, m wire.Message) error {
	n.l.mu.Lock()
	defer n.l.mu.Unlock()
	n.l.sent = append(n.l.sent, sent{dst, m})
	return nil
}
func (n logNode) SendTo(to wire.From, m wire.Message) error { return n.Send(to.Addr, m) }
func (n logNode) Call(context.Context, wire.Addr, wire.Message) (wire.Message, error) {
	return nil, transport.ErrNoRoute
}
func (n logNode) Respond(to wire.From, _ uint64, m wire.Message) error { return n.Send(to.Addr, m) }
func (n logNode) Close() error                                         { return nil }

// reportServer is partition 1 of DC 1 in a 3-DC deployment on the scripted
// net, never started: no report loop runs, so every report it sends is one a
// batch made.
func reportServer(t *testing.T) (*Server, *sendLog) {
	t.Helper()
	log := &sendLog{}
	s, err := NewServer(Config{DC: 1, Part: 1, NumDCs: 3, NumParts: 2, Clock: ClockHLC}, log)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, log
}

// apply hands s a batch from DC src's replica, at HighTS high, and returns
// what s sent in answer.
func apply(s *Server, log *sendLog, src int, high uint64) []sent {
	s.dispatch(wire.At(wire.ServerAddr(src, 1)), 1, &wire.RepBatch{
		SrcDC: uint8(src), HighTS: high,
		Ups: []wire.Update{{Key: "k", Value: []byte("v"), TS: high, DV: vclock.Vec{0, 0, 0}}},
	})
	return log.take()
}

// TestReportOnApply: a batch that moves vv[src] is acked and then reported
// to the DC's stabilizer at once, carrying the new entry beside every other.
func TestReportOnApply(t *testing.T) {
	s, log := reportServer(t)
	for i, step := range []struct {
		src  int
		high uint64
		want vclock.Vec // the report's remote entries; the local one is the clock
	}{{0, 10, vclock.Vec{10, 0, 0}}, {2, 7, vclock.Vec{10, 0, 7}}, {0, 25, vclock.Vec{25, 0, 7}}} {
		out := apply(s, log, step.src, step.high)
		if len(out) != 2 {
			t.Fatalf("batch %d: sent %d messages, want an ack and a report", i, len(out))
		}
		if _, ok := out[0].m.(*wire.RepAck); !ok || out[0].dst != wire.ServerAddr(step.src, 1) {
			t.Fatalf("batch %d: first sent %T to %v, want the ack to its sender", i, out[0].m, out[0].dst)
		}
		r, ok := out[1].m.(*wire.VVReport)
		if !ok || out[1].dst != wire.StabilizerAddr(1) || r.Part != 1 {
			t.Fatalf("batch %d: then sent %T to %v, want partition 1's VVReport to DC 1's stabilizer", i, out[1].m, out[1].dst)
		}
		if got := (vclock.Vec{r.VV[0], 0, r.VV[2]}); !got.Equal(step.want) || r.VV[1] == 0 {
			t.Fatalf("batch %d: reported %v, want remote entries %v and the clock", i, r.VV, step.want)
		}
	}
}

// TestReportOnApplyNotForCoveredBatch: a batch the VV already covers — a
// duplicate, or a retry that lost to its original — is acked and reports
// nothing.
func TestReportOnApplyNotForCoveredBatch(t *testing.T) {
	s, log := reportServer(t)
	apply(s, log, 0, 10)
	for _, high := range []uint64{10, 4} {
		out := apply(s, log, 0, high)
		if len(out) != 1 {
			t.Fatalf("covered batch at HighTS %d sent %d messages, want the ack alone", high, len(out))
		}
		if _, ok := out[0].m.(*wire.RepAck); !ok {
			t.Fatalf("covered batch at HighTS %d answered %T, want a RepAck", high, out[0].m)
		}
	}
}

// reportTap counts the VVReports each node attached through it sends.
type reportTap struct {
	transport.Network
	mu sync.Mutex
	n  map[wire.Addr]int
}

func (r *reportTap) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	n, err := r.Network.Attach(addr, h)
	if err != nil {
		return nil, err
	}
	return tappedNode{n, r}, nil
}

func (r *reportTap) count(a wire.Addr) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n[a]
}

type tappedNode struct {
	transport.Node
	r *reportTap
}

func (n tappedNode) Send(dst wire.Addr, m wire.Message) error {
	if _, ok := m.(*wire.VVReport); ok {
		n.r.mu.Lock()
		n.r.n[n.Addr()]++
		n.r.mu.Unlock()
	}
	return n.Node.Send(dst, m)
}

// TestReportFloorWithWANSevered: with every inter-DC frame lost no batch
// applies, and every partition still reports once per stabilization period
// — never more often — so the GSS's local entry keeps advancing, and a
// local PUT and ROT still succeed.
func TestReportFloorWithWANSevered(t *testing.T) {
	local := transport.NewLocal(transport.LatencyModel{})
	local.SetInterDCLoss(1)
	tap := &reportTap{Network: local, n: map[wire.Addr]int{}}
	start := time.Now()
	d := deployOn(t, local, tap, 2, 2, ClockHLC)

	const window = 40 * stabilizePeriod
	time.Sleep(2 * stabilizePeriod) // every partition's first reports
	gss := d.stabs[0].GSS()
	time.Sleep(window)
	if now := d.stabs[0].GSS(); now[0] <= gss[0] || now[1] != 0 {
		t.Fatalf("DC 0's GSS went %v -> %v over %v with the WAN severed; want the local entry to advance alone", gss, now, window)
	}
	elapsed := time.Since(start)
	for _, s := range d.servers {
		// Under a loaded -race run a tick may come late, never early.
		if n, most := tap.count(s.Addr()), int(elapsed/stabilizePeriod); n < most/2 || n > most+1 {
			t.Errorf("%v sent %d reports in %v, want one per %v", s.Addr(), n, elapsed, stabilizePeriod)
		}
	}

	cli := d.client(t, 0, 1, OneAndHalfRounds)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	kvs, err := cli.ROT(ctx, []string{"k"})
	if err != nil || string(kvs[0].Value) != "v" {
		t.Fatalf("ROT after a local PUT with the WAN severed: %v, %v", kvs, err)
	}
}
