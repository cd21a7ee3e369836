// Command kvctl is a client CLI for a kvserver deployment.
//
//	kvctl -topology topo.txt put mykey myvalue
//	kvctl -topology topo.txt get mykey
//	kvctl -topology topo.txt rot key1 key2 key3
//	kvctl -topology topo.txt bench -n 1000
//
// Every client is a logical session on one multiplexed endpoint with one
// socket per server it contacts. With -sessions-per-conn the bench command
// drives many sessions over that endpoint instead of one:
//
//	kvctl -topology topo.txt -tenants 4 -sessions-per-conn 250 bench 20000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A client's id is drawn from [idBase, idBase+idSpan).
const idBase, idSpan = 1000, 30000

func main() {
	var cfg cluster.Config
	flag.Func("protocol", "protocol slug, as given to the kvservers (default contrarian); an unknown one is rejected with the accepted list", func(s string) (err error) {
		cfg.Protocol, err = cluster.ParseProtocol(s)
		return err
	})
	var (
		topoPath = flag.String("topology", "", "topology file (required)")
		dc       = flag.Int("dc", 0, "home data center")
		timeout  = flag.Duration("timeout", 5*time.Second, "operation timeout")
		seed     = flag.Int64("seed", 0, "RNG seed for client id and bench key picks; 0 draws a time-based seed, any other value makes runs reproducible")
		tenants  = flag.Int("tenants", 1, "bench: spread sessions round-robin over this many admission tenants")
		sessions = flag.Int("sessions-per-conn", 0, "bench: run this many logical sessions per tenant, all multiplexed over one endpoint's socket per server (0 = the one session every command runs)")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	// A locally constructed generator instead of the deprecated global
	// rand.Seed path: reproducible whenever -seed is given.
	rng := rand.New(rand.NewSource(*seed))
	args := flag.Args()
	if *topoPath == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: kvctl -topology FILE [-protocol P] [-dc N] put|get|rot|bench ...")
		os.Exit(2)
	}
	f, err := os.Open(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := cluster.ParseTopology(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	cfg.DCs, cfg.Partitions = topo.DCs, topo.Partitions
	if *dc < 0 || *dc >= topo.DCs {
		log.Fatalf("kvctl: -dc %d outside topology (have %d DCs)", *dc, topo.DCs)
	}
	// The bench's session ids run up from the drawn id; they must all fit
	// the client id space whatever id is drawn.
	if free := wire.MaxClientID - (idBase + idSpan - 1); *sessions > free/max(*tenants, 1) {
		log.Fatalf("kvctl: -tenants %d x -sessions-per-conn %d exceeds the %d client ids above the highest drawn id", *tenants, *sessions, free)
	}

	net := transport.NewTCP(topo.Directory)
	defer net.Close()
	// id addresses the endpoint and is its first session's id; the bench's
	// further sessions count up from it.
	id := int(rng.Int31n(idSpan)) + idBase
	mux, err := net.AttachMux(wire.ClientAddr(*dc, id), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer mux.Close()
	cli, err := cfg.NewClient(*dc, id, 0, mux)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Pre-connect to every partition so servers can answer this client
	// directly (the partition-to-client leg of 1 1/2-round ROTs).
	if err := cli.Warm(ctx); err != nil {
		log.Fatal(err)
	}

	switch args[0] {
	case "put":
		if len(args) != 3 {
			log.Fatal("usage: put KEY VALUE")
		}
		ts, err := cli.Put(ctx, args[1], []byte(args[2]))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("OK ts=%d\n", ts)
	case "get":
		if len(args) != 2 {
			log.Fatal("usage: get KEY")
		}
		v, err := cli.Get(ctx, args[1])
		if err != nil {
			log.Fatal(err)
		}
		if v == nil {
			fmt.Println("(nil)")
		} else {
			fmt.Printf("%s\n", v)
		}
	case "rot":
		if len(args) < 2 {
			log.Fatal("usage: rot KEY...")
		}
		kvs, err := cli.ROT(ctx, args[1:])
		if err != nil {
			log.Fatal(err)
		}
		for _, kv := range kvs {
			if kv.Value == nil {
				fmt.Printf("%s = (nil)\n", kv.Key)
			} else {
				fmt.Printf("%s = %s (ts %d)\n", kv.Key, kv.Value, kv.TS)
			}
		}
	case "putchain":
		// One session, sequential puts: each put causally depends on the one
		// before it (the CC-LO/COPS dependency chain the crash smokes need —
		// separate kvctl invocations are separate sessions with no deps).
		if len(args) < 2 {
			log.Fatal("usage: putchain KEY=VALUE...")
		}
		for _, pair := range args[1:] {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("putchain: %q is not KEY=VALUE", pair)
			}
			ts, err := cli.Put(ctx, k, []byte(v))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("OK %s ts=%d\n", k, ts)
		}
	case "straddle":
		// A multi-partition CC-LO ROT played one leg at a time with a pause
		// between the legs, so a test harness can kill -9 and restart a
		// partition mid-ROT. Prints each leg's value and epoch vector plus
		// whether the client fence would retry the ROT.
		if cfg.Protocol != cluster.CCLO {
			log.Fatal("straddle is a CC-LO command (-protocol cclo)")
		}
		if len(args) != 4 {
			log.Fatal("usage: straddle GAP KEY1 KEY2")
		}
		gap, err := time.ParseDuration(args[1])
		if err != nil {
			log.Fatal(err)
		}
		straddle(net, *dc, topo.Partitions, int(rng.Int31n(20000))+40000, gap, args[2], args[3])
	case "bench":
		n := 1000
		if len(args) == 2 {
			fmt.Sscanf(args[1], "%d", &n)
		}
		if *sessions > 0 {
			benchSessions(net, mux, cfg, *dc, id, n, *tenants, *sessions, *timeout)
		} else {
			benchLoop(cli, n, *timeout, rng)
		}
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

// straddle hand-plays one CC-LO ROT: leg 1 to KEY1's partition, a sleep of
// gap (the harness's window to kill/restart a partition), then leg 2 to
// KEY2's partition under the same rot id, retried until the partition is
// back. Output is grep-friendly for CI smokes.
func straddle(net transport.Network, dc, parts, id int, gap time.Duration, k1, k2 string) {
	r := ring.New(parts)
	p1, p2 := r.Owner(k1), r.Owner(k2)
	if p1 == p2 {
		log.Fatalf("straddle: %q and %q are both on partition %d; pick keys on distinct partitions", k1, k2, p1)
	}
	node, err := net.Attach(wire.ClientAddr(dc, id), transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	rotID := uint64(node.Addr())<<32 | 1

	leg := func(name string, part int, key string) *wire.LoRotResp {
		deadline := time.Now().Add(60 * time.Second)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			resp, err := node.Call(ctx, wire.ServerAddr(dc, part), &wire.LoRotReq{RotID: rotID, Keys: []string{key}})
			cancel()
			if err == nil {
				rr, ok := resp.(*wire.LoRotResp)
				if !ok {
					log.Fatalf("straddle %s: unexpected response %T", name, resp)
				}
				return rr
			}
			if time.Now().After(deadline) {
				log.Fatalf("straddle %s: partition %d never answered: %v", name, part, err)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	show := func(v []byte) string {
		if v == nil {
			return "(nil)"
		}
		return string(v)
	}
	leg1 := leg("leg1", p1, k1)
	fmt.Printf("leg1 %s=%s epochs=%v\n", k1, show(leg1.Vals[0].Value), leg1.Epochs)
	time.Sleep(gap)
	leg2 := leg("leg2", p2, k2)
	fmt.Printf("leg2 %s=%s epochs=%v\n", k2, show(leg2.Vals[0].Value), leg2.Epochs)
	fenced := false
	if p1 < len(leg1.Epochs) && p1 < len(leg2.Epochs) && leg2.Epochs[p1] > leg1.Epochs[p1] {
		fenced = true
	}
	if p2 < len(leg1.Epochs) && p2 < len(leg2.Epochs) && leg1.Epochs[p2] > leg2.Epochs[p2] {
		fenced = true
	}
	fmt.Printf("fenced=%v\n", fenced)
}

// benchSessions is the connection-scale bench: tenants x perConn logical
// sessions, with ids counting up from baseID+1, share mux, which holds one
// socket per server, and hammer the cluster concurrently. The summary line
// reports aggregate goodput plus the endpoint's socket high-water mark —
// the number the connection-scale smoke bounds. Warm-up
// and every op are bounded by timeout; a session whose call times out
// stops there and counts its remaining ops as failed, so an unanswering
// server costs the run one timeout, not one per op.
func benchSessions(net *transport.TCP, mux transport.Mux, cfg cluster.Config, dc, baseID, n, tenants, perConn int, timeout time.Duration) {
	if tenants < 1 {
		tenants = 1
	}
	total := tenants * perConn
	clis := make([]cluster.Client, total)
	for i := range clis {
		// id must stay unique per DC across the process's sessions (CC-LO
		// rot identity).
		id := baseID + 1 + i
		cli, err := cfg.NewClient(dc, id, uint16(i%tenants), mux)
		if err != nil {
			log.Fatalf("session %d: %v", i, err)
		}
		clis[i] = cli
	}
	defer func() {
		for _, cli := range clis {
			cli.Close()
		}
	}()

	keys := seedKeys(clis[0], timeout)

	perSession := max(n/total, 1)
	var ops, fails atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i, cli := range clis {
		wg.Add(1)
		go func(i int, cli cluster.Client) {
			defer wg.Done()
			// Per-session generator: the shared one is not goroutine-safe.
			rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			err := cli.Warm(ctx)
			cancel()
			if err != nil {
				fails.Add(int64(perSession))
				return
			}
			for j := 0; j < perSession; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				if j%5 == 0 {
					_, err = cli.Put(ctx, keys[rng.Intn(len(keys))], []byte("v"))
				} else {
					_, err = cli.ROT(ctx, []string{keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]})
				}
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					fails.Add(int64(perSession - j))
					return
				}
				if err != nil {
					fails.Add(1)
					continue
				}
				ops.Add(1)
			}
		}(i, cli)
	}
	wg.Wait()
	elapsed := time.Since(start)
	v := net.Stats().View()
	fmt.Printf("%d sessions (%d tenants) over 1 socket/server: %d ops in %v (%.0f op/s), %d failed; sockets peak=%d sessions peak=%d\n",
		total, tenants, ops.Load(), elapsed.Round(time.Millisecond),
		float64(ops.Load())/elapsed.Seconds(), fails.Load(), v.OpenConnsPeak, v.SessionsPeak)
}

// seedKeys writes the bench's 64 keys through cli, each put bounded by
// timeout, and returns them.
func seedKeys(cli cluster.Client, timeout time.Duration) []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%02d", i)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err := cli.Put(ctx, keys[i], []byte("seed"))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
	}
	return keys
}

// benchLoop runs n ops on one client, each bounded by timeout.
func benchLoop(cli cluster.Client, n int, timeout time.Duration, rng *rand.Rand) {
	keys := seedKeys(cli, timeout)
	var rotTot, putTot time.Duration
	var rots, puts int
	start := time.Now()
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		t0 := time.Now()
		var err error
		if i%5 == 0 {
			_, err = cli.Put(ctx, keys[rng.Intn(len(keys))], []byte("v"))
			putTot += time.Since(t0)
			puts++
		} else {
			_, err = cli.ROT(ctx, []string{keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]})
			rotTot += time.Since(t0)
			rots++
		}
		cancel()
		if err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d ops in %v (%.0f op/s); avg rot %v, avg put %v\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		rotTot/time.Duration(max(rots, 1)), putTot/time.Duration(max(puts, 1)))
}
