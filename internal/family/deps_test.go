package family

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/wire"
)

// versions is a family's hasVersion predicate over a set of installed
// (key, ts, src) identities.
type versions struct {
	mu  sync.Mutex
	set map[wire.LoDep]bool
}

func (v *versions) has(key string, ts uint64, src uint8) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.set[wire.LoDep{Key: key, TS: ts, Src: src}]
}

func (v *versions) install(d wire.LoDep) {
	v.mu.Lock()
	if v.set == nil {
		v.set = make(map[wire.LoDep]bool)
	}
	v.set[d] = true
	v.mu.Unlock()
}

// twoKeys returns a key owned by partition 0 and one owned by partition 1
// of a two-partition ring.
func twoKeys(r ring.Ring) (local, remote string) {
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		switch {
		case local == "" && r.Owner(k) == 0:
			local = k
		case remote == "" && r.Owner(k) == 1:
			remote = k
		}
	}
	return local, remote
}

// TestDepCheckBlocksUntilInstalled (moved from internal/cclo): a dependency
// check is answered only once the version it names is installed, and then
// with success.
func TestDepCheckBlocksUntilInstalled(t *testing.T) {
	var vs versions
	node := newFakeNode(nil)
	w := NewDepWaiter(node, 0, 0, ring.New(2), vs.has)
	go w.HandleDepCheck(wire.At(wire.ServerAddr(0, 1)), 9, &wire.DepCheckReq{Key: "x", TS: 1})

	select {
	case m := <-node.responds:
		t.Fatalf("dep check answered before the install: %T", m)
	case <-time.After(100 * time.Millisecond):
	}
	// An install of another version wakes the waiter, which must keep
	// waiting for its own.
	vs.install(wire.LoDep{Key: "x", TS: 1, Src: 1})
	w.Installed()
	select {
	case m := <-node.responds:
		t.Fatalf("dep check answered by a same-timestamp version from another DC: %T", m)
	case <-time.After(50 * time.Millisecond):
	}
	vs.install(wire.LoDep{Key: "x", TS: 1})
	w.Installed()
	select {
	case m := <-node.responds:
		if _, ok := m.(*wire.DepCheckResp); !ok {
			t.Fatalf("dep check answered %T, want *wire.DepCheckResp", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dep check never unblocked after the install")
	}
}

// TestShutdownAbortsWaitWithoutSuccess: a wait cut short by Stop reports
// the dependency as NOT verified — Wait returns false, HandleDepCheck
// answers an error and WaitAll returns one — never success, which would
// let the caller durably install a dependent whose dependency is missing.
func TestShutdownAbortsWaitWithoutSuccess(t *testing.T) {
	var vs versions
	r := ring.New(2)
	local, _ := twoKeys(r)
	node := newFakeNode(nil)
	w := NewDepWaiter(node, 0, 0, r, vs.has)

	waited := make(chan bool, 1)
	go func() { waited <- w.Wait(local, 5, 0) }()
	go w.HandleDepCheck(wire.At(wire.ServerAddr(0, 1)), 9, &wire.DepCheckReq{Key: local, TS: 5})
	allErr := make(chan error, 1)
	go func() { allErr <- w.WaitAll([]wire.LoDep{{Key: local, TS: 5}}) }()

	select {
	case <-waited:
		t.Fatal("Wait returned with the version missing and the waiter running")
	case <-time.After(50 * time.Millisecond):
	}
	w.Stop()
	select {
	case ok := <-waited:
		if ok {
			t.Fatal("Wait reported an uninstalled dependency as verified at shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release Wait")
	}
	select {
	case m := <-node.responds:
		if e, ok := m.(*wire.ErrorResp); !ok {
			t.Fatalf("aborted dep check answered %T, want *wire.ErrorResp", m)
		} else if e.Code != 503 {
			t.Fatalf("aborted dep check answered code %d, want 503", e.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted dep check was never answered")
	}
	select {
	case err := <-allErr:
		if err == nil {
			t.Fatal("WaitAll returned nil for a dependency nobody verified")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release WaitAll")
	}
	// A stopped waiter refuses new waits too, but still sees real installs.
	if w.Wait(local, 6, 0) {
		t.Fatal("Wait after Stop verified a missing version")
	}
	vs.install(wire.LoDep{Key: local, TS: 6})
	if !w.Wait(local, 6, 0) {
		t.Fatal("Wait after Stop denied an installed version")
	}
}

// TestWaitAllAsksOnlyForWhatIsMissing: installed local dependencies are
// settled inline with no message; a dependency on another partition's key
// costs exactly one DepCheckReq to that partition of the same DC, and its
// failure fails the whole check.
func TestWaitAllAsksOnlyForWhatIsMissing(t *testing.T) {
	var vs versions
	r := ring.New(2)
	local, remote := twoKeys(r)
	var fail atomic.Bool
	node := newFakeNode(func(context.Context, call) (wire.Message, error) {
		if fail.Load() {
			return nil, &wire.ErrorResp{Code: 503, Text: "stopping"}
		}
		return &wire.DepCheckResp{}, nil
	})
	w := NewDepWaiter(node, 1, 0, r, vs.has)
	vs.install(wire.LoDep{Key: local, TS: 3, Src: 1})

	if err := w.WaitAll([]wire.LoDep{{Key: local, TS: 3, Src: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-node.calls:
		t.Fatalf("an installed local dependency cost a message: %+v", c.m)
	default:
	}

	deps := []wire.LoDep{{Key: local, TS: 3, Src: 1}, {Key: remote, TS: 8, Src: 2}}
	if err := w.WaitAll(deps); err != nil {
		t.Fatal(err)
	}
	c := node.nextCall(t)
	if want := (wire.DepCheckReq{Key: remote, TS: 8, Src: 2}); c.dst != wire.ServerAddr(1, 1) || *c.m.(*wire.DepCheckReq) != want {
		t.Fatalf("remote dependency asked %+v of %v, want %+v of %v", c.m, c.dst, want, wire.ServerAddr(1, 1))
	}
	select {
	case c := <-node.calls:
		t.Fatalf("one remote dependency cost a second message: %+v", c.m)
	default:
	}

	fail.Store(true)
	if err := w.WaitAll(deps); err == nil {
		t.Fatal("WaitAll returned nil though the remote dependency check failed")
	}
}
