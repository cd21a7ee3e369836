package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestAdmitLimitGatesClientLoad drives Config.AdmitLimit through Start to
// the live gate of every partition server. A CC-LO PUT holds its admission
// token across the readers check it sends to the sibling partition, so
// with a limit of 1 a storm of one tenant's sessions, more than the token
// plus a full park queue, must be both admitted and shed. Each op either
// succeeds or gives up with ErrOverloaded once its Busy retries run out,
// and after the storm a plain PUT and GET go straight through.
func TestAdmitLimitGatesClientLoad(t *testing.T) {
	c := startCluster(t, Config{Protocol: CCLO, DCs: 1, Partitions: 2, AdmitLimit: 1})
	ctx := testCtx(t)
	x, y := distinctPartKeys(c.Ring(), "admit")

	const sessions = 3 * (1 + transport.DefaultParkPerTenant)
	const opsPerSession = 10
	clients := make([]Client, sessions)
	for i := range clients {
		cli, err := c.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clients[i] = cli
	}
	// Every session's first PUT goes to x's partition at once; after that
	// each PUT depends on the session's previous one on the other
	// partition, so it runs a readers check there while holding its token.
	start := make(chan struct{})
	errs := make(chan error, sessions*opsPerSession)
	var wg sync.WaitGroup
	for _, cli := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < opsPerSession; i++ {
				key := x
				if i%2 == 1 {
					key = y
				}
				_, err := cli.Put(ctx, key, seqVal(uint64(i)))
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	var overloaded int
	for err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, transport.ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("storm op: %v, want nil or ErrOverloaded", err)
		}
	}

	v := c.Admission()
	t.Logf("admission: %+v, %d ops gave up overloaded", v, overloaded)
	if v.Admitted == 0 {
		t.Fatal("the gate admitted nothing")
	}
	if v.Shed+v.ClientRetries == 0 {
		t.Fatalf("a storm of %d sessions past limit 1 + park %d was never shed", sessions, transport.DefaultParkPerTenant)
	}

	cli, err := c.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Put(ctx, x, []byte("after")); err != nil {
		t.Fatalf("PUT after the storm: %v", err)
	}
	got, err := cli.Get(ctx, x)
	if err != nil {
		t.Fatalf("GET after the storm: %v", err)
	}
	if !bytes.Equal(got, []byte("after")) {
		t.Fatalf("GET after the storm = %q, want %q", got, "after")
	}
}
