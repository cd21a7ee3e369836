package family

import (
	"context"
	"fmt"
	"reflect"
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

// keysOn returns n keys that partition part of r owns.
func keysOn(r ring.Ring, part, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("k%d", i); r.Owner(k) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// unanswered fails the test if node responds within d.
func unanswered(t *testing.T, node *fakeNode, d time.Duration, when string) {
	t.Helper()
	select {
	case m := <-node.responds:
		t.Fatalf("dep check answered %s: %T", when, m)
	case <-time.After(d):
	}
}

// asked drains the dependency checks node has sent so far, by partition of
// the waiter's DC; a second request to one partition fails the test.
func asked(t *testing.T, node *fakeNode, dc int) map[int][]wire.LoDep {
	t.Helper()
	out := make(map[int][]wire.LoDep)
	for {
		select {
		case c := <-node.calls:
			m, ok := c.m.(*wire.DepCheckReq)
			if !ok || !c.dst.IsServer() || c.dst.DC() != dc {
				t.Fatalf("dependency check sent %T to %v", c.m, c.dst)
			}
			if _, dup := out[c.dst.Index()]; dup {
				t.Fatalf("partition %d asked twice", c.dst.Index())
			}
			out[c.dst.Index()] = m.Deps
		default:
			return out
		}
	}
}

// TestDepCheckBlocksUntilInstalled (moved from internal/cclo): a dependency
// check is answered only once EVERY version it lists is installed, and then
// with success.
func TestDepCheckBlocksUntilInstalled(t *testing.T) {
	var vs versions
	node := newFakeNode(nil)
	w := NewDepWaiter(node, 0, 0, ring.New(2), vs.has)
	first, second := wire.LoDep{Key: "x", TS: 1}, wire.LoDep{Key: "y", TS: 2}
	go w.HandleDepCheck(wire.At(wire.ServerAddr(0, 1)), 9, &wire.DepCheckReq{Deps: []wire.LoDep{first, second}})

	unanswered(t, node, 100*time.Millisecond, "before any install")
	// An install of another version wakes the waiter, which must keep
	// waiting for its own.
	vs.install(wire.LoDep{Key: "x", TS: 1, Src: 1})
	w.Installed()
	unanswered(t, node, 50*time.Millisecond, "by a same-timestamp version from another DC")
	vs.install(first)
	w.Installed()
	unanswered(t, node, 50*time.Millisecond, "with only the first listed version installed")
	vs.install(second)
	w.Installed()
	select {
	case m := <-node.responds:
		if _, ok := m.(*wire.DepCheckResp); !ok {
			t.Fatalf("dep check answered %T, want *wire.DepCheckResp", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dep check never unblocked after the installs")
	}
	if got := w.waits.Load(); got != 2 {
		t.Fatalf("%d dependencies counted as waited for, want 2", got)
	}
}

// TestShutdownAbortsWaitWithoutSuccess: a wait cut short by Stop reports
// the dependency as NOT verified — Wait returns false, HandleDepCheck
// answers an error and WaitAll returns one — never success, which would
// let the caller durably install a dependent whose dependency is missing.
// The multi-dependency request and update each list an installed version
// ahead of the missing one.
func TestShutdownAbortsWaitWithoutSuccess(t *testing.T) {
	var vs versions
	r := ring.New(2)
	local := keysOn(r, 0, 2)
	node := newFakeNode(nil)
	w := NewDepWaiter(node, 0, 0, r, vs.has)
	have, missing := wire.LoDep{Key: local[0], TS: 5}, wire.LoDep{Key: local[1], TS: 5}
	vs.install(have)

	waited := make(chan bool, 1)
	go func() { waited <- w.Wait(missing.Key, missing.TS, missing.Src) }()
	go w.HandleDepCheck(wire.At(wire.ServerAddr(0, 1)), 9, &wire.DepCheckReq{Deps: []wire.LoDep{have, missing}})
	allErr := make(chan error, 1)
	go func() { allErr <- w.WaitAll([]wire.LoDep{have, missing}) }()

	select {
	case <-waited:
		t.Fatal("Wait returned with the version missing and the waiter running")
	case <-time.After(50 * time.Millisecond):
	}
	unanswered(t, node, 10*time.Millisecond, "with a listed version missing and the waiter running")
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
	if w.Wait(local[1], 6, 0) {
		t.Fatal("Wait after Stop verified a missing version")
	}
	vs.install(wire.LoDep{Key: local[1], TS: 6})
	if !w.Wait(local[1], 6, 0) {
		t.Fatal("Wait after Stop denied an installed version")
	}
}

// TestWaitAllAsksOnlyForWhatIsMissing, on a three-partition ring: installed
// local dependencies are settled inline with no message, missing ones are
// waited for without one; every other partition holding dependencies costs
// exactly one DepCheckReq to that partition of the same DC, listing its
// dependencies in order; a failure from any of them fails the whole check.
func TestWaitAllAsksOnlyForWhatIsMissing(t *testing.T) {
	var vs versions
	r := ring.New(3)
	own, p1, p2 := keysOn(r, 0, 2), keysOn(r, 1, 3), keysOn(r, 2, 1)
	var failAt atomic.Int32 // the partition whose checks fail; -1: none
	failAt.Store(-1)
	node := newFakeNode(func(_ context.Context, c call) (wire.Message, error) {
		if c.dst.Index() == int(failAt.Load()) {
			return nil, &wire.ErrorResp{Code: 503, Text: "stopping"}
		}
		return &wire.DepCheckResp{}, nil
	})
	w := NewDepWaiter(node, 1, 0, r, vs.has)
	installed := wire.LoDep{Key: own[0], TS: 3, Src: 1}
	vs.install(installed)

	if err := w.WaitAll([]wire.LoDep{installed}); err != nil {
		t.Fatal(err)
	}
	if got := asked(t, node, 1); len(got) != 0 {
		t.Fatalf("an installed local dependency cost a message: %+v", got)
	}

	// A missing local dependency is waited for, not asked about.
	missing := wire.LoDep{Key: own[1], TS: 4}
	done := make(chan error, 1)
	go func() { done <- w.WaitAll([]wire.LoDep{installed, missing}) }()
	select {
	case err := <-done:
		t.Fatalf("WaitAll returned %v with a local dependency missing", err)
	case <-time.After(50 * time.Millisecond):
	}
	vs.install(missing)
	w.Installed()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := asked(t, node, 1); len(got) != 0 {
		t.Fatalf("a missing local dependency cost a message: %+v", got)
	}

	// Three dependencies on partition 1, around an installed local one: one
	// request listing the three in order.
	onOne := []wire.LoDep{{Key: p1[0], TS: 8, Src: 2}, {Key: p1[1], TS: 9}, {Key: p1[2], TS: 4, Src: 1}}
	if err := w.WaitAll([]wire.LoDep{onOne[0], installed, onOne[1], onOne[2]}); err != nil {
		t.Fatal(err)
	}
	if got, want := asked(t, node, 1), map[int][]wire.LoDep{1: onOne}; !reflect.DeepEqual(got, want) {
		t.Fatalf("asked %+v, want %+v", got, want)
	}

	// One on partition 2 as well costs one more request.
	onTwo := wire.LoDep{Key: p2[0], TS: 6, Src: 2}
	deps := []wire.LoDep{installed, onOne[0], onOne[1], onTwo, onOne[2]}
	if err := w.WaitAll(deps); err != nil {
		t.Fatal(err)
	}
	if got, want := asked(t, node, 1), map[int][]wire.LoDep{1: onOne, 2: {onTwo}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("asked %+v, want %+v", got, want)
	}
	if req, keys := w.requests.Load(), w.keys.Load(); req != 3 || keys != 7 {
		t.Fatalf("counted %d requests carrying %d dependencies, want 3 carrying 7", req, keys)
	}
	if got := w.waits.Load(); got != 1 {
		t.Fatalf("%d dependencies counted as waited for, want 1", got)
	}

	for _, p := range []int32{1, 2} {
		failAt.Store(p)
		if err := w.WaitAll(deps); err == nil {
			t.Fatalf("WaitAll returned nil though partition %d's dependency check failed", p)
		}
		asked(t, node, 1)
	}
}
