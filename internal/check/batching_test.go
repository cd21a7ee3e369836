package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCausalityUnderAggressiveBatching runs the causal-consistency checker
// over TCP's socket writers, which coalesce whatever frames are queued, for
// every protocol family, each node on a TCP network of its own as separate
// kvserver processes would be. A second run per family uses the Local
// simulator with strong jitter: Local sends each frame as its own flight
// with its own latency sample, so the jitter reorders frames freely, within
// a link and across links. If coalescing or reordering could ever lead into
// a causality violation, sessions here would observe it. (The paper's
// guarantees are per-session; the transport itself promises no
// cross-message ordering, which is exactly why this must be policed by the
// checker rather than assumed.)
func TestCausalityUnderAggressiveBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, proto := range cluster.Families() {
		t.Run(fmt.Sprintf("%s/tcp", proto), func(t *testing.T) {
			t.Parallel()
			soakCausality(t, startTCPDeployment(t, proto))
		})
		t.Run(fmt.Sprintf("%s/jittered-flights", proto), func(t *testing.T) {
			t.Parallel()
			// Real (small) link latencies with strong jitter, so frames
			// traverse the delivery wheels and overtake each other.
			c, err := cluster.Start(cluster.Config{
				Protocol:   proto,
				DCs:        2,
				Partitions: 2,
				Latency: &transport.LatencyModel{
					IntraDC:    50 * time.Microsecond,
					InterDC:    300 * time.Microsecond,
					JitterFrac: 0.5,
				},
				MaxVersions: 256,
				Seed:        1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			soakCausality(t, c)
		})
	}
}

// soakCausality seeds eight keys through d, runs three sessions per DC of
// random puts and multi-key ROTs through the checker, and then waits for
// the two DCs to converge.
func soakCausality(t *testing.T, d deployment) {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk%d", i)
	}
	seedCtx, cancelSeed := context.WithTimeout(context.Background(), 20*time.Second)
	seeder, err := d.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := d.NewClient(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := seeder.Put(seedCtx, k, []byte(fmt.Sprintf("seed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		for {
			v, err := remote.Get(seedCtx, k)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	seeder.Close()
	remote.Close()
	cancelSeed()

	h := check.New()
	const clientsPerDC = 3
	const opsPerClient = 120
	var wg sync.WaitGroup
	fail := make(chan error, clientsPerDC*2)
	for dc := 0; dc < 2; dc++ {
		for ci := 0; ci < clientsPerDC; ci++ {
			wg.Add(1)
			go func(dc, ci int) {
				defer wg.Done()
				name := fmt.Sprintf("dc%d-c%d", dc, ci)
				cli, err := d.NewClient(dc, 0)
				if err != nil {
					fail <- err
					return
				}
				defer cli.Close()
				rec := h.Client(name)
				rng := rand.New(rand.NewSource(int64(dc*100 + ci)))
				seq := 0
				for op := 0; op < opsPerClient; op++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					if rng.Intn(100) < 35 {
						key := keys[rng.Intn(len(keys))]
						seq++
						val := fmt.Sprintf("%s-%d", name, seq)
						if ts, err := cli.Put(ctx, key, []byte(val)); err == nil {
							rec.Put(key, val, ts)
						} else {
							fail <- fmt.Errorf("%s put: %w", name, err)
						}
					} else {
						n := 1 + rng.Intn(3)
						ks := make([]string, 0, n)
						seen := map[string]bool{}
						for len(ks) < n {
							k := keys[rng.Intn(len(keys))]
							if !seen[k] {
								seen[k] = true
								ks = append(ks, k)
							}
						}
						if kvs, err := cli.ROT(ctx, ks); err == nil {
							reads := make([]check.Read, len(kvs))
							for i, kv := range kvs {
								reads[i] = check.Read{Key: kv.Key, Val: string(kv.Value), TS: kv.TS}
							}
							rec.ReadTx(reads)
						} else {
							fail <- fmt.Errorf("%s rot: %w", name, err)
						}
					}
					cancel()
				}
			}(dc, ci)
		}
	}
	wg.Wait()
	close(fail)
	if err := <-fail; err != nil {
		t.Fatal(err)
	}
	if err := h.Err(); err != nil {
		for _, v := range h.Violations() {
			t.Error(v)
		}
		t.FailNow()
	}
	puts, reads := h.Ops()
	if puts == 0 || reads == 0 {
		t.Fatalf("vacuous run: %d puts, %d reads recorded", puts, reads)
	}
	t.Logf("checked %d puts, %d reads", puts, reads)
	waitConverged(t, d, keys)
}

// tcpDeployment is a 2-DC x 2-partition cluster over localhost sockets:
// every server and stabilizer, and each DC's client mux, is on a TCP
// network of its own, so every hop crosses a socket.
type tcpDeployment struct {
	cfg     cluster.Config
	servers []cluster.Server
	muxes   []transport.Mux
	seq     [2]atomic.Int32
}

// tcpMuxID is the client id of each DC's client mux, above the session ids
// NewClient hands out.
const tcpMuxID = 0xFFFE

// bindMu serializes reserving free ports with binding them, so parallel
// deployments never race each other for a port.
var bindMu sync.Mutex

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startTCPDeployment starts proto's cluster over TCP; t's cleanup tears it
// down.
func startTCPDeployment(t *testing.T, proto cluster.Protocol) *tcpDeployment {
	t.Helper()
	d := &tcpDeployment{cfg: cluster.Config{Protocol: proto, DCs: 2, Partitions: 2, MaxVersions: 256}}
	bindMu.Lock()
	defer bindMu.Unlock()
	dir := map[wire.Addr]string{}
	for dc := 0; dc < d.cfg.DCs; dc++ {
		for p := 0; p < d.cfg.Partitions; p++ {
			dir[wire.ServerAddr(dc, p)] = freePort(t)
		}
		dir[wire.StabilizerAddr(dc)] = freePort(t)
	}
	newNet := func() transport.Network {
		n := transport.NewTCP(dir)
		t.Cleanup(func() { n.Close() })
		return n
	}
	// Clock skews of up to ±1 ms, as cluster.Start draws them.
	rng := rand.New(rand.NewSource(1 + 7))
	for dc := 0; dc < d.cfg.DCs; dc++ {
		m, err := newNet().AttachMux(wire.ClientAddr(dc, tcpMuxID), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		d.muxes = append(d.muxes, m)
		for p := 0; p < d.cfg.Partitions; p++ {
			skew := time.Duration(rng.Int63n(int64(2*time.Millisecond))) - time.Millisecond
			s, err := d.cfg.NewServer(dc, p, skew, nil, newNet())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			d.servers = append(d.servers, s)
		}
		if proto.Stabilized() {
			st, err := d.cfg.NewStabilizer(dc, newNet())
			if err != nil {
				t.Fatal(err)
			}
			st.Start()
			t.Cleanup(func() { st.Close() })
		}
	}
	for _, s := range d.servers {
		s.Start()
	}
	return d
}

// NewClient opens a session homed in dc and warms its return paths, which
// a session's first multi-partition ROT needs over TCP.
func (d *tcpDeployment) NewClient(dc int, tenant uint16) (cluster.Client, error) {
	id := int(d.seq[dc].Add(1))
	cli, err := d.cfg.NewClient(dc, id, tenant, d.muxes[dc])
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cli.Warm(ctx); err != nil {
		cli.Close()
		return nil, err
	}
	return cli, nil
}

func (d *tcpDeployment) Servers() []cluster.Server { return d.servers }
