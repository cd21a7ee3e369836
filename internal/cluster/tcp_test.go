package cluster

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// freeAddr reserves an ephemeral localhost port for a test topology, so
// tests never flake on a hard-coded port another process holds.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestParseTopology(t *testing.T) {
	src := `
# comment
0 0    127.0.0.1:7000
0 1    127.0.0.1:7001
0 stab 127.0.0.1:7099
1 0    127.0.0.1:7100
1 1    127.0.0.1:7101
1 stab 127.0.0.1:7199
`
	topo, err := ParseTopology(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if topo.DCs != 2 || topo.Partitions != 2 {
		t.Fatalf("topo = %d DCs, %d partitions", topo.DCs, topo.Partitions)
	}
	if topo.Directory[wire.ServerAddr(1, 1)] != "127.0.0.1:7101" {
		t.Fatalf("directory wrong: %v", topo.Directory)
	}
	if topo.Directory[wire.StabilizerAddr(0)] != "127.0.0.1:7099" {
		t.Fatalf("stabilizer missing: %v", topo.Directory)
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"0 0", "want 3 fields"},
		{"x 0 127.0.0.1:7000", "bad dc"},
		{"0 y 127.0.0.1:7000", "bad partition"},
		{"0 0 a:1\n0 0 b:2", "duplicate"},
		{"# only comments", "no partitions"},
		// Holes: each parsed, and kvserver then retried the absent address.
		{"0 0 a:1\n0 2 b:1", "no entry for dc 0 partition 1"},
		{"0 0 a:1\n1 stab b:1", "no entry for dc 1 partition 0"},
	}
	for _, c := range cases {
		_, err := ParseTopology(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTopology(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
}

// TestTCPDeployment runs 1 DC x 2 partitions of every family over real TCP
// sockets on localhost, assembled exactly as cmd/kvserver and cmd/kvctl
// assemble it — Config.NewServer (plus NewStabilizer where the family has
// one) and Config.NewClient as sessions of one client mux (pool 2) over a
// TCP network — and checks basic causal operation, including a
// cross-partition dependency (CC-LO's readers check and COPS's dependency
// check then cross sockets) and the 1 1/2-round ROT's direct pushes to a
// session over a real socket.
func TestTCPDeployment(t *testing.T) {
	for _, proto := range Families() {
		t.Run(proto.Slug(), func(t *testing.T) {
			// Not parallel: freeAddr's ports are only reserved until the
			// servers bind them, and sibling subtests would race for them.
			cfg := Config{Protocol: proto, DCs: 1, Partitions: 2}
			dir := map[wire.Addr]string{
				wire.ServerAddr(0, 0):  freeAddr(t),
				wire.ServerAddr(0, 1):  freeAddr(t),
				wire.StabilizerAddr(0): freeAddr(t),
			}
			net := transport.NewTCP(dir)
			defer net.Close()
			for p := 0; p < cfg.Partitions; p++ {
				s, err := cfg.NewServer(0, p, 0, nil, net)
				if err != nil {
					t.Fatal(err)
				}
				s.Start()
				defer s.Close()
			}
			if proto.Stabilized() {
				st, err := cfg.NewStabilizer(0, net)
				if err != nil {
					t.Fatal(err)
				}
				st.Start()
				defer st.Close()
			}
			mux, err := net.AttachMux(wire.ClientAddr(0, 899), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()
			cli, err := cfg.NewClient(0, 900, 0, mux)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			x, y := distinctPartKeys(ring.New(cfg.Partitions), "tcp")
			if _, err := cli.Put(ctx, x, []byte("1")); err != nil {
				t.Fatal(err)
			}
			// This PUT depends on x, which lives on the other partition.
			if _, err := cli.Put(ctx, y, []byte("2")); err != nil {
				t.Fatal(err)
			}
			if got, err := cli.Get(ctx, x); err != nil || string(got) != "1" {
				t.Fatalf("Get over TCP returned %q, %v", got, err)
			}
			kvs, err := cli.ROT(ctx, []string{x, y, "tcp-missing"})
			if err != nil {
				t.Fatal(err)
			}
			if string(kvs[0].Value) != "1" || string(kvs[1].Value) != "2" || kvs[2].Value != nil {
				t.Fatalf("ROT over TCP returned %q %q %q", kvs[0].Value, kvs[1].Value, kvs[2].Value)
			}

			// Regression: a FRESH session whose first operation is a
			// multi-partition ROT needs warmed return paths — without Warm,
			// the non-coordinator partition cannot dial back and a 1 1/2-round
			// ROT would time out.
			fresh, err := cfg.NewClient(0, 901, 1, mux)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if err := fresh.Warm(ctx); err != nil {
				t.Fatal(err)
			}
			kvs, err = fresh.ROT(ctx, []string{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if string(kvs[0].Value) != "1" || string(kvs[1].Value) != "2" {
				t.Fatalf("fresh-client ROT returned %q %q", kvs[0].Value, kvs[1].Value)
			}
		})
	}
}
