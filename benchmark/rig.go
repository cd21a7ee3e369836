package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"repro/internal/cclo"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mvstore"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// kvClient is what the drivers need from a protocol session (the method set
// core.Client and cclo.Client share).
type kvClient interface {
	Put(ctx context.Context, key string, value []byte) (uint64, error)
	ROT(ctx context.Context, keys []string) ([]wire.KV, error)
	Warm(ctx context.Context) error
	Close() error
}

// rig is one hand-assembled cluster: the public constructors wired the way
// cmd/kvserver wires them, all in this process. Assembling by hand (rather
// than through cluster.Start) is what lets the traced run slide its
// decorators between the servers and the transport.Network / wal.Durability
// interfaces they already accept.
type rig struct {
	spec *spec
	ring ring.Ring
	tr   *tracer // nil in the untraced run

	nets  []transport.Network
	stats []*transport.Stats
	cores []*core.Server
	los   []*cclo.Server
	stabs []*core.Stabilizer
	logs  []*wal.Log
	muxes []transport.Mux
	reg   *metrics.Registry // lag gauges (traced run only)

	sessions []*session // the first loadedPerDC of DC0, then of DC1, then any burst sessions
	nextID   [numDCs]int
	bufs     [][]int64 // sample buffers, reused across set-ups (indexed like sessions)
	closed   bool
}

// muxClientID is the client address each DC's session mux attaches at; it
// mirrors cluster.Cluster so session ids and CC-LO rot ids look the same.
const muxClientID = 0xFFFE

// setupTimes are the parts of setup_s.
type setupTimes struct{ start, preload, attach, warmup, gc time.Duration }

func (t setupTimes) total() time.Duration { return t.start + t.preload + t.attach + t.warmup + t.gc }

// freePorts reserves n loopback ports by listening and closing.
func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out, nil
}

// newNet returns the network a server (or a DC's clients) attaches to: the
// shared Local, or a transport.TCP of its own as a separate process would
// have. The traced run wraps it.
func (r *rig) newNet(shared *transport.Local, dir map[wire.Addr]string) transport.Network {
	var n transport.Network
	if shared != nil {
		n = shared
	} else {
		t := transport.NewTCP(dir)
		r.nets = append(r.nets, t)
		r.stats = append(r.stats, t.Stats())
		n = t
	}
	if r.tr != nil {
		return r.tr.network(n)
	}
	return n
}

// startRig assembles and starts the cluster (the "start" part of set-up).
func startRig(sp *spec, tr *tracer, dataDir string) (*rig, error) {
	r := &rig{spec: sp, ring: ring.New(sp.Parts), tr: tr}
	var shared *transport.Local
	var dir map[wire.Addr]string
	if sp.TCP {
		ports, err := freePorts(numDCs * (sp.Parts + 1))
		if err != nil {
			return nil, err
		}
		dir = make(map[wire.Addr]string)
		for dc := 0; dc < numDCs; dc++ {
			for p := 0; p < sp.Parts; p++ {
				dir[wire.ServerAddr(dc, p)] = ports[dc*(sp.Parts+1)+p]
			}
			dir[wire.StabilizerAddr(dc)] = ports[dc*(sp.Parts+1)+sp.Parts]
		}
	} else {
		shared = transport.NewLocal(transport.DefaultLatency())
		r.nets = append(r.nets, shared)
		r.stats = append(r.stats, shared.Stats())
	}
	if tr != nil {
		r.reg = metrics.NewRegistry()
	}

	// Clock skews drawn as cluster.Start draws them for bench.Run (Seed 1,
	// ±1 ms), so latencies are comparable with the figures.
	rng := rand.New(rand.NewSource(1 + 7))
	for dc := 0; dc < numDCs; dc++ {
		for p := 0; p < sp.Parts; p++ {
			skew := time.Duration(rng.Int63n(int64(2*time.Millisecond))) - time.Millisecond
			var durable wal.Durability
			if sp.Durable {
				l, err := wal.Open(wal.Options{
					Dir:  filepath.Join(dataDir, fmt.Sprintf("dc%d-p%d", dc, p)),
					Sync: wal.SyncAlways,
				})
				if err != nil {
					r.close()
					return nil, err
				}
				r.logs = append(r.logs, l)
				durable = l
				if tr != nil {
					durable = tr.durability(l, wire.ServerAddr(dc, p))
				}
			}
			nw := r.newNet(shared, dir)
			if sp.Family == famCCLO {
				s, err := cclo.NewServer(cclo.Config{
					DC: dc, Part: p, NumDCs: numDCs, NumParts: sp.Parts, Durable: durable,
				}, nw)
				if err != nil {
					r.close()
					return nil, err
				}
				r.los = append(r.los, s)
				continue
			}
			s, err := core.NewServer(core.Config{
				DC: dc, Part: p, NumDCs: numDCs, NumParts: sp.Parts,
				Clock: core.ClockHLC, Skew: skew, Durable: durable,
			}, nw)
			if err != nil {
				r.close()
				return nil, err
			}
			if r.reg != nil {
				s.RegisterMetrics(r.reg,
					metrics.Label{Name: "dc", Value: fmt.Sprint(dc)},
					metrics.Label{Name: "partition", Value: fmt.Sprint(p)})
			}
			r.cores = append(r.cores, s)
		}
		if sp.Family == famContrarian {
			st, err := core.NewStabilizer(dc, sp.Parts, numDCs, 0, r.newNet(shared, dir))
			if err != nil {
				r.close()
				return nil, err
			}
			st.Start()
			r.stabs = append(r.stabs, st)
		}
	}
	for _, s := range r.cores {
		s.Start()
	}
	for _, s := range r.los {
		s.Start()
	}
	for dc := 0; dc < numDCs; dc++ {
		m, err := r.newNet(shared, dir).AttachMux(wire.ClientAddr(dc, muxClientID), 2)
		if err != nil {
			r.close()
			return nil, err
		}
		r.muxes = append(r.muxes, m)
	}
	return r, nil
}

// preload installs version 1 of every key into every replica's store,
// bypassing the protocols, exactly as cluster.Preload does.
func (r *rig) preload(ks *workload.KeySpace) {
	val := make([]byte, r.spec.Mix.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	dv := vclock.New(numDCs)
	dv[0] = 1
	for dc := 0; dc < numDCs; dc++ {
		for p, keys := range ks.Keys {
			idx := dc*r.spec.Parts + p
			if r.spec.Family == famCCLO {
				r.los[idx].Preload(keys, val)
				continue
			}
			st := r.cores[idx].Store()
			for _, k := range keys {
				st.Install(k, mvstore.Version{Value: val, TS: 1, SrcDC: 0, DV: dv})
			}
		}
	}
	// Let stabilization produce a first GSS before clients arrive.
	time.Sleep(30 * time.Millisecond)
}

// attach opens perDC more sessions in every DC as logical sessions of the
// DC's mux (the client model ROADMAP 3a keeps) and warms their return
// paths. Streams are handed out in order; the burst reuses them cyclically.
func (r *rig) attach(perDC int, streams []*opStream) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for dc := 0; dc < numDCs; dc++ {
		for i := 0; i < perDC; i++ {
			r.nextID[dc]++
			id := r.nextID[dc]
			sid := wire.MakeSession(0, uint16(id))
			var cli kvClient
			var err error
			if r.spec.Family == famCCLO {
				cli, err = cclo.NewSessionClient(cclo.ClientConfig{DC: dc, ID: id, Ring: r.ring}, r.muxes[dc], sid)
			} else {
				cli, err = core.NewSessionClient(core.ClientConfig{
					DC: dc, ID: id, NumDCs: numDCs, Ring: r.ring, Mode: core.OneAndHalfRounds,
				}, r.muxes[dc], sid)
			}
			if err != nil {
				return err
			}
			s := &session{
				tag: uint16(dc<<12 | id), cli: cli,
				stream: streams[len(r.sessions)%len(streams)],
				value:  make([]byte, max(r.spec.Mix.ValueSize, 8)),
			}
			if i := len(r.sessions); i < len(r.bufs) {
				s.samples = r.bufs[i]
			} else {
				s.samples = make([]int64, 0, sampleCap)
			}
			if r.tr != nil {
				s.ts = r.tr.session(dc, sid)
			}
			r.sessions = append(r.sessions, s)
			if err := cli.Warm(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// close tears the cluster down in cluster.Close's order: sessions, servers
// (draining their appends), logs, stabilizers, client endpoints, networks.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, s := range r.sessions {
		s.cli.Close()
	}
	for _, s := range r.cores {
		s.Close()
	}
	for _, s := range r.los {
		s.Close()
	}
	for _, l := range r.logs {
		l.Close()
	}
	for _, st := range r.stabs {
		st.Close()
	}
	for _, m := range r.muxes {
		m.Close()
	}
	for _, n := range r.nets {
		n.Close()
	}
}

// netView sums the transport counters over every network in the rig (one on
// Local, one per server and per DC of clients on TCP).
func (r *rig) netView() transport.StatsView {
	var sum transport.StatsView
	for _, s := range r.stats {
		v := s.View()
		sum.MsgsSent += v.MsgsSent
		sum.BytesSent += v.BytesSent
		sum.Flushes += v.Flushes
		sum.FramesCoalesced += v.FramesCoalesced
		sum.WritevBytes += v.WritevBytes
		sum.HandlerOverflow += v.HandlerOverflow
		sum.FlushP99Delay = max(sum.FlushP99Delay, v.FlushP99Delay)
		sum.SendQueuePeak = max(sum.SendQueuePeak, v.SendQueuePeak)
		sum.OpenConnsPeak += v.OpenConnsPeak
		sum.SessionsPeak += v.SessionsPeak
	}
	return sum
}

func (r *rig) walView() wal.StatsView {
	var v wal.StatsView
	for _, l := range r.logs {
		v.Merge(l.Stats().View())
	}
	return v
}

// ccloView sums the readers-check counters over the CC-LO servers plus the
// sessions' epoch-fence retries (zero on the other family).
func (r *rig) ccloView() cclo.StatsSnapshot {
	var sum cclo.StatsSnapshot
	for _, s := range r.los {
		v := s.Stats().Snapshot()
		sum.Checks += v.Checks
		sum.KeysChecked += v.KeysChecked
		sum.PartitionsAsked += v.PartitionsAsked
		sum.IDsCumulative += v.IDsCumulative
		sum.IDsDistinct += v.IDsDistinct
	}
	for _, s := range r.sessions {
		if c, ok := s.cli.(*cclo.Client); ok {
			sum.FenceRetries += c.FenceRetries()
		}
	}
	return sum
}
