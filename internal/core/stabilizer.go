package core

import (
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Stabilizer is one DC's stabilization service. Partitions report their
// version vectors every stabilization period; the stabilizer aggregates the
// entry-wise minimum — the Global Stable Snapshot — and broadcasts it back.
//
// The paper describes partitions exchanging VVs directly; a depth-1
// aggregation tree (this service) computes the identical GSS with O(N)
// messages per round instead of O(N²) (see DESIGN.md, Known deviations).
type Stabilizer struct {
	dc     int
	parts  int
	period time.Duration
	node   transport.Node

	mu  sync.Mutex
	vvs map[uint32]vclock.Vec
	gss vclock.Vec

	stop     chan struct{}
	stopOnce sync.Once      // a second Close must not close stop again
	wg       sync.WaitGroup // the aggregation loop, if Start ran
}

// NewStabilizer attaches a stabilization service for dc to net.
func NewStabilizer(dc, numParts, numDCs int, period time.Duration, net transport.Network) (*Stabilizer, error) {
	if period <= 0 {
		period = 5 * time.Millisecond
	}
	st := &Stabilizer{
		dc:     dc,
		parts:  numParts,
		period: period,
		vvs:    make(map[uint32]vclock.Vec, numParts),
		gss:    vclock.New(numDCs),
		stop:   make(chan struct{}),
	}
	node, err := net.Attach(wire.StabilizerAddr(dc), st)
	if err != nil {
		return nil, err
	}
	st.node = node
	return st, nil
}

// Start launches the aggregation loop.
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

// Handle receives partition VV reports.
func (st *Stabilizer) Handle(_ transport.Node, _ wire.From, _ uint64, m wire.Message) {
	if r, ok := m.(*wire.VVReport); ok {
		st.mu.Lock()
		st.vvs[r.Part] = r.VV
		st.mu.Unlock()
	}
}

func (st *Stabilizer) loop() {
	defer st.wg.Done()
	t := newTicker(st.period)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			if g := st.aggregate(); g != nil {
				for p := 0; p < st.parts; p++ {
					_ = st.node.Send(wire.ServerAddr(st.dc, p), &wire.GSSBcast{GSS: g})
				}
			}
		}
	}
}

// aggregate computes min over all reported VVs once every partition has
// reported at least once; the result is kept monotone.
func (st *Stabilizer) aggregate() vclock.Vec {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.vvs) < st.parts {
		return nil
	}
	var agg vclock.Vec
	for _, vv := range st.vvs {
		if agg == nil {
			agg = vv.Clone()
		} else {
			agg.MinInto(vv)
		}
	}
	st.gss.MaxInto(agg)
	return st.gss.Clone()
}
