package causalkv

import (
	"context"
	"strings"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestPublicAPIBasics(t *testing.T) {
	for _, p := range []Protocol{Contrarian, ContrarianTwoRound, Cure, CCLO, COPS} {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c, err := StartCluster(Options{Protocol: p, Partitions: 4, IntraDCLatency: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s, err := c.NewSession(0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := testCtx(t)

			ts, err := s.Put(ctx, "k1", []byte("v1"))
			if err != nil {
				t.Fatal(err)
			}
			if ts == 0 {
				t.Fatal("zero timestamp")
			}
			got, err := s.Get(ctx, "k1")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v1" {
				t.Fatalf("Get = %q", got)
			}
			items, err := s.ReadTx(ctx, "k1", "nope")
			if err != nil {
				t.Fatal(err)
			}
			if string(items[0].Value) != "v1" || items[0].Timestamp == 0 {
				t.Fatalf("ReadTx[0] = %+v", items[0])
			}
			if items[1].Value != nil || items[1].Timestamp != 0 {
				t.Fatalf("missing key = %+v", items[1])
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DataCenters != 1 || o.Partitions != 8 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.IntraDCLatency <= 0 || o.InterDCLatency <= 0 || o.MaxClockSkew <= 0 {
		t.Fatalf("latency defaults missing: %+v", o)
	}
}

// TestDurableCluster drives the embedded API's durable path: with DataDir
// set, each acknowledgment contract serves a write back through a ROT with
// its timestamp, and an unknown contract is refused with the accepted ones.
func TestDurableCluster(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			c, err := StartCluster(Options{Partitions: 2, IntraDCLatency: -1, DataDir: t.TempDir(), WALSync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s, err := c.NewSession(0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := testCtx(t)
			ts, err := s.Put(ctx, "durable", []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			items, err := s.ReadTx(ctx, "durable")
			if err != nil {
				t.Fatal(err)
			}
			if string(items[0].Value) != "v" || items[0].Timestamp != ts {
				t.Fatalf("ReadTx = %+v, want v at ts %d", items[0], ts)
			}
		})
	}
	_, err := StartCluster(Options{DataDir: t.TempDir(), WALSync: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "sync|async") {
		t.Fatalf("WALSync bogus: err = %v, want one listing sync|async", err)
	}
}

func TestProtocolStrings(t *testing.T) {
	names := map[Protocol]string{}
	for _, p := range []Protocol{Contrarian, ContrarianTwoRound, Cure, CCLO, COPS} {
		s := p.String()
		if s == "" {
			t.Fatalf("empty name for %d", p)
		}
		for q, n := range names {
			if n == s {
				t.Fatalf("protocols %d and %d share name %q", p, q, s)
			}
		}
		names[p] = s
	}
}

func TestTwoDCSessionPlacement(t *testing.T) {
	c, err := StartCluster(Options{DataCenters: 2, Partitions: 2, IntraDCLatency: -1, InterDCLatency: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for dc := 0; dc < 2; dc++ {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		if s.DC() != dc {
			t.Fatalf("session DC = %d, want %d", s.DC(), dc)
		}
		s.Close()
	}
	if _, err := c.NewSession(9); err == nil {
		t.Fatal("expected error for unknown DC")
	}
}

func TestCrossDCVisibility(t *testing.T) {
	c, err := StartCluster(Options{DataCenters: 2, Partitions: 2, IntraDCLatency: -1, InterDCLatency: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := testCtx(t)
	w, _ := c.NewSession(0)
	defer w.Close()
	r, _ := c.NewSession(1)
	defer r.Close()
	if _, err := w.Put(ctx, "geo", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, err := r.Get(ctx, "geo"); err == nil && string(v) == "v" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("write never visible across DCs")
}
