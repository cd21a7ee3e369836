package family

import (
	"context"
	"errors"
	"sync"
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
var errStopping = errors.New("dep check aborted: server stopping")

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

// Stop releases every blocked Wait with false, now and from here on.
func (w *DepWaiter) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Wait blocks until the (ts, src) version of key is installed; false means
// the server is stopping and the dependency was NOT verified.
func (w *DepWaiter) Wait(key string, ts uint64, src uint8) bool {
	if w.hasVersion(key, ts, src) {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.hasVersion(key, ts, src) {
		if w.stopped {
			return false
		}
		w.cond.Wait()
	}
	return true
}

// HandleDepCheck blocks until this partition holds the version the request
// names, then responds. A shutdown abort answers with an error — never
// success: the caller would otherwise durably install a dependent whose
// dependency this partition never had.
func (w *DepWaiter) HandleDepCheck(src wire.From, reqID uint64, m *wire.DepCheckReq) {
	if !w.Wait(m.Key, m.TS, m.Src) {
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
// A local dependency that is already installed — the common case — is
// settled inline; only what is missing gets a waiter (or, for another
// partition's key, a DepCheckReq).
func (w *DepWaiter) WaitAll(deps []wire.LoDep) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(deps))
	for _, d := range deps {
		p := w.ring.Owner(d.Key)
		if p == w.part && w.hasVersion(d.Key, d.TS, d.Src) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p == w.part {
				if !w.Wait(d.Key, d.TS, d.Src) {
					errCh <- errStopping
				}
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), CallTimeout)
			defer cancel()
			if _, err := w.node.Call(ctx, wire.ServerAddr(w.dc, p), &wire.DepCheckReq{Key: d.Key, TS: d.TS, Src: d.Src}); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
