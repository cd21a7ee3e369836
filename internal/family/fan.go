package family

import (
	"context"
	"fmt"

	"repro/internal/wire"
)

// Fan runs one round of n legs and returns once every leg has returned.
// leg(ctx, i) runs leg i: legs 1..n-1 on a goroutine each, launched first,
// then leg 0 on the caller, so a one-leg round starts none and leg 0 may
// touch the caller's state. fold(i, r) takes each leg's answer on the
// caller, one at a time, leg 0's first and the rest as they arrive, until it
// sees an error. The first error, a leg's or fold's, cancels ctx for the
// legs still running, and Fan returns it.
func Fan[R any](ctx context.Context, n int, leg func(ctx context.Context, i int) (R, error), fold func(i int, r R) error) error {
	if n == 0 {
		return nil
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	type answer struct {
		i   int
		r   R
		err error
	}
	run := func(i int) answer {
		r, err := leg(ctx, i)
		if err != nil {
			cancel(err)
		}
		return answer{i, r, err}
	}
	answers := make(chan answer, n-1)
	for i := 1; i < n; i++ {
		go func() { answers <- run(i) }()
	}
	failed := false
	take := func(a answer) {
		if failed = failed || a.err != nil; !failed {
			if err := fold(a.i, a.r); err != nil {
				cancel(err)
				failed = true
			}
		}
	}
	take(run(0))
	for range n - 1 {
		take(<-answers)
	}
	if failed {
		return context.Cause(ctx)
	}
	return nil
}

// As returns a Call's answer as an R, passing the Call's own error through.
// An answer of another type is an error wrapping wire.ErrUnknownType that
// names both types.
func As[R wire.Message](m wire.Message, err error) (R, error) {
	r, ok := m.(R)
	if err == nil && !ok {
		err = fmt.Errorf("%w: got %T, want %T", wire.ErrUnknownType, m, r)
	}
	return r, err
}
