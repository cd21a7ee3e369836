package family

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CallTimeout bounds a server-to-server check inside a DC: a dependency
// check here, a family's own checks (CC-LO's readers check) where it runs
// them.
const CallTimeout = 10 * time.Second

// errStopping answers dependency waits a shutdown cut short.
var errStopping = errors.New("dependency wait aborted: server stopping")

// PartDeps is the share of a dependency list owned by one partition.
type PartDeps struct {
	Part int
	Deps []wire.LoDep
}

// ByOwner splits deps by owning partition: one group per partition holding
// at least one, in order of first appearance, each listing its
// dependencies in their original order. Every check that fans out over a
// dependency list (the dependency check, CC-LO's readers check) asks each
// partition once, with its group.
func ByOwner(r ring.Ring, deps []wire.LoDep) []PartDeps {
	var groups []PartDeps
	for _, d := range deps {
		p := r.Owner(d.Key)
		i := slices.IndexFunc(groups, func(g PartDeps) bool { return g.Part == p })
		if i < 0 {
			i = len(groups)
			groups = append(groups, PartDeps{Part: p})
		}
		groups[i].Deps = append(groups[i].Deps, d)
	}
	return groups
}

// DepWaiter is COPS-style dependency checking for one partition: a
// replicated update installs only after every version it depends on is
// installed in this DC. The family supplies hasVersion — its store's
// "is (key, ts, src) installed" predicate — and LoServer calls Installed
// after every install; the rest is the same for every family with
// dependency lists.
type DepWaiter struct {
	node       transport.Node
	dc, part   int
	ring       ring.Ring
	hasVersion func(key string, ts uint64, src uint8) bool

	mu      sync.Mutex
	cond    *sync.Cond // signalled by Installed and Stop
	stopped bool

	// requests and keys count the DepCheckReqs sent and the dependencies
	// they carried; waits counts dependencies missing on arrival — of a
	// replicated update on this partition, or of a check served here (a
	// DepCheckReq, or CC-LO's readers check for a replicated update).
	requests, keys, waits atomic.Uint64
}

// NewDepWaiter builds the waiter of partition (dc, part).
func NewDepWaiter(node transport.Node, dc, part int, r ring.Ring, hasVersion func(key string, ts uint64, src uint8) bool) *DepWaiter {
	w := &DepWaiter{node: node, dc: dc, part: part, ring: r, hasVersion: hasVersion}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Installed wakes blocked dependency checks; call it after every install.
func (w *DepWaiter) Installed() {
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Stop releases every blocked wait with false, now and from here on.
func (w *DepWaiter) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// waitInstalled blocks until every listed version is installed here; false
// means the server is stopping and some dependency was NOT verified. The
// installed ones settle without the lock. hasVersion stays true once it
// holds (a trimmed chain still claims what it trimmed), so the wait only
// moves forward through the list.
func (w *DepWaiter) waitInstalled(deps []wire.LoDep) bool {
	first, missing := len(deps), 0
	for i, d := range deps {
		if !w.hasVersion(d.Key, d.TS, d.Src) {
			first = min(first, i)
			missing++
		}
	}
	if missing == 0 {
		return true
	}
	w.waits.Add(uint64(missing))
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := first; i < len(deps); {
		if d := deps[i]; w.hasVersion(d.Key, d.TS, d.Src) {
			i++
			continue
		}
		if w.stopped {
			return false
		}
		w.cond.Wait()
	}
	return true
}

// HandleDepCheck blocks until this partition holds every version the
// request lists, then responds. A shutdown abort answers with an error —
// never success, while any listed version is missing: the caller would
// otherwise durably install a dependent whose dependency this partition
// never had.
func (w *DepWaiter) HandleDepCheck(src wire.From, reqID uint64, m *wire.DepCheckReq) {
	if !w.waitInstalled(m.Deps) {
		transport.RespondError(w.node, src, reqID, 503, errStopping.Error())
		return
	}
	_ = w.node.Respond(src, reqID, &wire.DepCheckResp{})
}

// WaitAll returns nil once every dependency of a replicated update is
// installed in this DC. A failed or shutdown-aborted check returns the
// error: the caller withholds the install AND the ack — installing an
// unverified dependent would be durably wrong, while the origin simply
// retries the (idempotent) update later.
//
// Dependencies are grouped by owning partition. Every other partition
// holding one gets a single DepCheckReq listing its group, all in
// parallel; this partition's own are settled inline when installed — the
// common case — and waited for here when not. The first failure cancels
// the remaining requests.
func (w *DepWaiter) WaitAll(deps []wire.LoDep) error {
	if len(deps) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), CallTimeout)
	defer cancel()
	var local []wire.LoDep
	groups := ByOwner(w.ring, deps)
	errs := make(chan error, len(groups))
	asked := 0
	for _, g := range groups {
		if g.Part == w.part {
			local = g.Deps
			continue
		}
		asked++
		w.requests.Add(1)
		w.keys.Add(uint64(len(g.Deps)))
		go func() {
			_, err := w.node.Call(ctx, wire.ServerAddr(w.dc, g.Part), &wire.DepCheckReq{Deps: g.Deps})
			errs <- err
		}()
	}
	var err error
	if !w.waitInstalled(local) {
		err = errStopping
		cancel()
	}
	for range asked {
		if e := <-errs; e != nil && err == nil {
			err = e
			cancel()
		}
	}
	return err
}
