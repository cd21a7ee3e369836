package cluster

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestProtocolTable pins the one table the commands, the metric labels and
// the assembly read: slugs round-trip, anything else is rejected with the
// accepted list, and a stabilizer exists exactly for the core-backed rows.
func TestProtocolTable(t *testing.T) {
	for _, p := range Families() {
		got, err := ParseProtocol(p.Slug())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.Slug(), got, err, p)
		}
		net := transport.NewLocal(*NoLatency())
		cfg := Config{Protocol: p, DCs: 1, Partitions: 1}
		s, err := cfg.NewServer(0, 0, 0, nil, net)
		if err != nil {
			t.Fatalf("%v: NewServer: %v", p, err)
		}
		_, coreBacked := s.(*core.Server)
		if p.Stabilized() != coreBacked {
			t.Errorf("%v: Stabilized() = %v, core-backed = %v", p, p.Stabilized(), coreBacked)
		}
		st, err := cfg.NewStabilizer(0, net)
		if (err == nil) != p.Stabilized() {
			t.Errorf("%v: NewStabilizer error = %v, Stabilized() = %v", p, err, p.Stabilized())
		}
		if err == nil {
			st.Close()
		}
		s.Close()
		net.Close()
	}
	for _, bad := range []string{"", "ccl0", "Contrarian", "nope"} {
		_, err := ParseProtocol(bad)
		if err == nil {
			t.Errorf("ParseProtocol(%q) succeeded", bad)
			continue
		}
		for _, p := range Families() {
			if !strings.Contains(err.Error(), p.Slug()) {
				t.Errorf("ParseProtocol(%q) error %q does not list %q", bad, err, p.Slug())
			}
		}
	}
	bogus := Config{Protocol: Protocol(len(Families())), DCs: 1, Partitions: 1}
	net := transport.NewLocal(*NoLatency())
	defer net.Close()
	if s, err := bogus.NewServer(0, 0, 0, nil, net); err == nil || s != nil {
		t.Errorf("NewServer for an out-of-table protocol = %v, %v; want an untyped nil and an error", s, err)
	}
	if _, err := bogus.NewClient(0, 1, net, nil, 0); err == nil {
		t.Error("NewClient for an out-of-table protocol succeeded")
	}
}

// TestClientIDSpaceExhaustion: plain clients and sessions draw ids from one
// per-DC counter whose top is reserved for the mux endpoint. Running out
// must be an error on both construction paths — a plain client used to
// attach at the mux's reserved address (breaking a later Mux) and then
// panic inside wire.ClientAddr's range check.
func TestClientIDSpaceExhaustion(t *testing.T) {
	c := startCluster(t, Config{Partitions: 1, Latency: NoLatency()})
	c.clientSeq[0].Store(muxClientID - 2)
	last, err := c.NewClient(0)
	if err != nil {
		t.Fatalf("the last free id was refused: %v", err)
	}
	defer last.Close()
	for i := 0; i < 3; i++ {
		if cli, err := c.NewClient(0); err == nil {
			cli.Close()
			t.Fatalf("plain client %d past the id space attached", i)
		}
	}
	if _, err := c.Mux(0); err != nil {
		t.Fatalf("Mux after exhaustion: %v", err)
	}
	if cli, err := c.NewSessionClient(0, 0); err == nil {
		cli.Close()
		t.Fatal("session client past the id space attached")
	}
}

// scrape sums the samples of the series name whose labels contain match.
func scrape(t *testing.T, reg *metrics.Registry, name, match string) (total float64) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+"{") && strings.Contains(line, match) {
			n, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("unparsable series %q", line)
			}
			total += n
		}
	}
	return total
}

// TestOneKeyGetRecordsGet: on every row, one PUT and one one-key Get move
// op="put" and op="get" by exactly one each — the partition skeleton applies
// one rule (a read whose request carries one key is a get) for every family.
func TestOneKeyGetRecordsGet(t *testing.T) {
	for _, p := range Families() {
		t.Run(p.Slug(), func(t *testing.T) {
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 1, Latency: NoLatency()})
			reg := metrics.NewRegistry()
			c.RegisterMetrics(reg)
			count := func(op string) float64 { return scrape(t, reg, "kv_server_op_seconds_count", `op="`+op+`"`) }
			put0, get0 := count("put"), count("get")
			ctx := testCtx(t)
			cli, err := c.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if _, err := cli.Put(ctx, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Get(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			if puts, gets := count("put")-put0, count("get")-get0; puts != 1 || gets != 1 {
				t.Fatalf("one put and one one-key get recorded %v puts and %v gets", puts, gets)
			}
		})
	}
}

// TestForgedReplicationSourceRefused: on every row, replicated data claiming
// the receiver's own DC, or a DC that does not exist, as its source is
// answered 400 and neither logged nor installed.
func TestForgedReplicationSourceRefused(t *testing.T) {
	for _, p := range Families() {
		t.Run(p.Slug(), func(t *testing.T) {
			net := transport.NewLocal(*NoLatency())
			defer net.Close()
			log, err := wal.Open(wal.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			s, err := Config{Protocol: p, DCs: 2, Partitions: 1}.NewServer(0, 0, 0, log, net)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			peer, err := net.Attach(wire.ServerAddr(1, 0), transport.HandlerFunc(
				func(transport.Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			appends := log.Stats().View().Appends
			ctx := testCtx(t)
			for _, src := range []uint8{0, 7} {
				var forged wire.Message = &wire.LoRepUpdate{SrcDC: src, Key: "k", Value: []byte("forged"), TS: 90}
				if p.Stabilized() {
					forged = &wire.RepBatch{SrcDC: src, HighTS: 90,
						Ups: []wire.Update{{Key: "k", Value: []byte("forged"), TS: 90, DV: vclock.Vec{90, 90}}}}
				}
				_, err := peer.Call(ctx, wire.ServerAddr(0, 0), forged)
				var e *wire.ErrorResp
				if !errors.As(err, &e) || e.Code != 400 {
					t.Fatalf("update from DC %d answered %v, want a 400", src, err)
				}
			}
			if n := log.Stats().View().Appends - appends; n != 0 {
				t.Fatalf("forged updates made %d appends", n)
			}
			s.ForEachLatest(func(key string, _ []byte, ts uint64, src uint8) {
				t.Fatalf("forged update installed: %s@%d from DC %d", key, ts, src)
			})
		})
	}
}

// TestDependencyChecksByFamily: on a 2-DC, 3-partition deployment where every
// PUT depends on versions of other partitions, COPS checks a replicated
// update's dependencies with DepCheckReqs, and CC-LO sends none: its readers
// check, run once per replicated update, is the dependency check. Every
// update still reaches the other DC.
func TestDependencyChecksByFamily(t *testing.T) {
	for _, p := range []Protocol{CCLO, COPS} {
		t.Run(p.Slug(), func(t *testing.T) {
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 3, Latency: NoLatency()})
			reg := metrics.NewRegistry()
			c.RegisterMetrics(reg)
			ctx := testCtx(t)
			cli, err := c.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			keys := []string{"a", "b", "c", "d", "e", "f"}
			const puts = 30
			for i := range puts {
				if _, err := cli.ROT(ctx, keys); err != nil {
					t.Fatal(err)
				}
				if _, err := cli.Put(ctx, keys[i%len(keys)], seqVal(uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			remote, err := c.NewClient(1)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			for i, k := range keys {
				want := uint64(puts - len(keys) + i + 1)
				for {
					v, err := remote.Get(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					if seqOf(v) == want {
						break
					}
					if ctx.Err() != nil {
						t.Fatalf("%s reads %d in DC 1, want %d", k, seqOf(v), want)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			requests := scrape(t, reg, "kv_dep_check_requests_total", "")
			switch p {
			case CCLO:
				if requests != 0 {
					t.Fatalf("CC-LO sent %v dependency checks, want 0", requests)
				}
				if got := c.CCLOStats().ReplicationChecks; got < puts {
					t.Fatalf("%d replication readers checks for %d replicated updates", got, puts)
				}
			case COPS:
				if requests == 0 {
					t.Fatal("COPS sent no dependency checks")
				}
			}
		})
	}
}
