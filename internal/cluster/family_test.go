package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
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
