package family

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFanFirstErrorCancelsLegs: one leg's error cancels the context of every
// other leg, leg 0 on the caller included, and Fan returns that error only
// after every leg has returned.
func TestFanFirstErrorCancelsLegs(t *testing.T) {
	boom := errors.New("boom")
	const n = 5
	var returned, canceled atomic.Int32
	err := Fan(context.Background(), n, func(ctx context.Context, i int) (int, error) {
		defer returned.Add(1)
		if i == 3 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
			canceled.Add(1)
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return i, nil
		}
	}, func(int, int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("Fan = %v, want the failing leg's error", err)
	}
	if got := returned.Load(); got != n {
		t.Fatalf("Fan returned with %d of %d legs returned", got, n)
	}
	if got := canceled.Load(); got != n-1 {
		t.Fatalf("%d of the %d other legs saw their context canceled", got, n-1)
	}
}

// TestFanCallerStateAndSerialFold: leg 0 runs on the caller and fold is
// serial, so both may write the caller's state without synchronization
// (run under -race); the answers all arrive, leg 0's first.
func TestFanCallerStateAndSerialFold(t *testing.T) {
	const n = 8
	var own int     // written by leg 0 only
	var order []int // written by fold only
	sum := 0        // written by fold only
	err := Fan(context.Background(), n, func(_ context.Context, i int) (int, error) {
		if i == 0 {
			own = 42
		}
		return i * i, nil
	}, func(i, sq int) error {
		order = append(order, i)
		sum += sq
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if own != 42 || len(order) != n || order[0] != 0 || sum != 140 {
		t.Fatalf("own=%d folds=%v sum=%d, want 42, %d folds with leg 0 first, 140", own, order, sum, n)
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestFanLegZeroOnCaller: leg 0 runs on the caller's goroutine and every
// other leg on one of its own, so a one-leg round starts none; a zero-leg
// round runs nothing.
func TestFanLegZeroOnCaller(t *testing.T) {
	caller := goid()
	for _, n := range []int{1, 3} {
		ids := make([]string, n)
		if err := Fan(context.Background(), n, func(_ context.Context, i int) (string, error) {
			return goid(), nil
		}, func(i int, id string) error {
			ids[i] = id
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if (id == caller) != (i == 0) {
				t.Fatalf("n=%d: leg %d ran on goroutine %s, caller is %s", n, i, id, caller)
			}
		}
	}
	if err := Fan(context.Background(), 0, func(context.Context, int) (int, error) {
		t.Error("a zero-leg round ran a leg")
		return 0, nil
	}, func(int, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFanFoldStopsAtFirstError: a fold error cancels the other legs, no
// later answer is folded, and Fan returns the fold's error.
func TestFanFoldStopsAtFirstError(t *testing.T) {
	stop := errors.New("bad answer")
	const n = 4
	folds := 0
	err := Fan(context.Background(), n, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			return 0, nil
		}
		<-ctx.Done() // released only by leg 0's failed fold
		return i, nil
	}, func(i, _ int) error {
		folds++
		return stop
	})
	if !errors.Is(err, stop) || folds != 1 {
		t.Fatalf("Fan = %v after %d folds, want the fold's error after 1", err, folds)
	}
}

// TestAs: a Call's error passes through; the wanted type comes back typed;
// any other answer wraps wire.ErrUnknownType and names both types.
func TestAs(t *testing.T) {
	callErr := errors.New("dial")
	if _, err := As[*wire.Pong](&wire.Pong{}, callErr); err != callErr {
		t.Fatalf("As passed %v, want the Call's own error", err)
	}
	if p, err := As[*wire.Pong](&wire.Pong{Nonce: 7}, nil); err != nil || p.Nonce != 7 {
		t.Fatalf("As = %v, %v; want the Pong", p, err)
	}
	_, err := As[*wire.Pong](&wire.RepAck{}, nil)
	if !errors.Is(err, wire.ErrUnknownType) || !strings.Contains(err.Error(), "*wire.RepAck") || !strings.Contains(err.Error(), "*wire.Pong") {
		t.Fatalf("As on a wrong answer = %v, want ErrUnknownType naming *wire.RepAck and *wire.Pong", err)
	}
}
