package cclo

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// typeCounter wraps a network and counts, by message type, the requests its
// nodes send.
type typeCounter struct {
	transport.Network
	mu   sync.Mutex
	sent map[uint16]int
}

type countingNode struct {
	transport.Node
	n *typeCounter
}

func (n *typeCounter) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	node, err := n.Network.Attach(addr, h)
	if err != nil {
		return nil, err
	}
	return countingNode{node, n}, nil
}

func (n *typeCounter) count(t uint16) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent[t]
}

func (c countingNode) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	c.n.mu.Lock()
	c.n.sent[m.Type()]++
	c.n.mu.Unlock()
	return c.Node.Call(ctx, dst, m)
}

// TestReplicatedUpdateChecksInOneRound: a replicated update's readers check
// is its dependency check. The partition holding the dependency answers only
// once the dependency is installed, so the update stays unacknowledged and
// invisible until then, and no DepCheckReq is sent. A ROT that reads the
// dependency's key while the update waits is an old reader of the dependency
// once it installs, and is never served the update (Figure 2 across DCs). A
// shutdown while a dependency is missing never lets the update install. Run
// with the dependency on another partition of the DC and on the update's own.
func TestReplicatedUpdateChecksInOneRound(t *testing.T) {
	r := ring.New(2)
	var onZero, onOne []string
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		if r.Owner(k) == 0 {
			onZero = append(onZero, k)
		} else {
			onOne = append(onOne, k)
		}
	}
	for _, tc := range []struct {
		name      string
		x, y      string // y's update depends on x
		remoteAsk int    // OldReadersReqs the check sends
	}{
		{"dependency on another partition", onZero[0], onOne[0], 1},
		{"dependency on the same partition", onOne[1], onOne[0], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local := transport.NewLocal(transport.LatencyModel{})
			defer local.Close()
			net := &typeCounter{Network: local, sent: make(map[uint16]int)}
			d := &testDeployment{net: local, ring: r}
			for p := range 2 {
				s, err := NewServer(Config{DC: 0, Part: p, NumDCs: 2, NumParts: 2, GCWindow: time.Minute}, net)
				if err != nil {
					t.Fatal(err)
				}
				s.Start()
				d.servers = append(d.servers, s)
			}
			origin, err := local.Attach(wire.ServerAddr(1, 0), transport.HandlerFunc(
				func(transport.Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			send := func(key, val string, ts uint64, deps ...wire.LoDep) <-chan error {
				done := make(chan error, 1)
				go func() {
					resp, err := origin.Call(ctx, wire.ServerAddr(0, r.Owner(key)),
						&wire.LoRepUpdate{SrcDC: 1, Key: key, Value: []byte(val), TS: ts, Deps: deps})
					if _, ok := resp.(*wire.RepAck); err == nil && !ok {
						t.Errorf("update %s@%d answered %T", key, ts, resp)
					}
					done <- err
				}()
				return done
			}
			for _, u := range []struct {
				key, val string
				ts       uint64
			}{{tc.x, "X5", 5}, {tc.y, "Y3", 3}} {
				if err := <-send(u.key, u.val, u.ts); err != nil {
					t.Fatal(err)
				}
			}

			dep := wire.LoDep{Key: tc.x, TS: 10, Src: 1}
			update := send(tc.y, "Y20", 20, dep)
			select {
			case err := <-update:
				t.Fatalf("update acknowledged (%v) with its dependency missing", err)
			case <-time.After(100 * time.Millisecond):
			}
			reader := newRawReader(t, d, 9)
			if v, _ := reader.read(t, d, 9<<32|1, tc.y); v != "Y3" {
				t.Fatalf("y = %q while its update waits for a dependency, want Y3", v)
			}
			const rotID = 9<<32 | 2
			if v, _ := reader.read(t, d, rotID, tc.x); v != "X5" {
				t.Fatalf("x = %q, want X5", v)
			}
			if err := <-send(tc.x, "X10", 10); err != nil {
				t.Fatal(err)
			}
			if err := <-update; err != nil {
				t.Fatalf("update after its dependency installed: %v", err)
			}
			if v, _ := reader.read(t, d, rotID, tc.y); v != "Y3" {
				t.Fatalf("the ROT that read X5 read y = %q, want Y3: it is an old reader of X10", v)
			}
			if v, _ := reader.read(t, d, 9<<32|3, tc.y); v != "Y20" {
				t.Fatalf("a fresh ROT read y = %q, want Y20", v)
			}
			if n := net.count(wire.TDepCheckReq); n != 0 {
				t.Fatalf("%d DepCheckReqs sent", n)
			}
			if n := net.count(wire.TOldReadersReq); n != tc.remoteAsk {
				t.Fatalf("%d OldReadersReqs sent, want %d", n, tc.remoteAsk)
			}
			var checks uint64
			for _, s := range d.servers {
				checks += s.Stats().Snapshot().ReplicationChecks
			}
			if checks != 4 {
				t.Fatalf("%d replication checks counted, want one per update (4)", checks)
			}

			// A dependency that never arrives: shutdown answers no ack (an
			// error, or nothing once the node is gone) and installs nothing.
			stranded := send(tc.y, "Y30", 30, wire.LoDep{Key: tc.x, TS: 99, Src: 1})
			time.Sleep(50 * time.Millisecond)
			for _, s := range d.servers {
				s.Close()
			}
			select {
			case err := <-stranded:
				if err == nil {
					t.Fatal("an update whose dependency never installed was acknowledged")
				}
			case <-time.After(time.Second):
			}
			d.servers[r.Owner(tc.y)].ForEachLatest(func(key string, v []byte, ts uint64, _ uint8) {
				if key == tc.y && ts != 20 {
					t.Fatalf("y's newest version is %q@%d after shutdown, want Y20", v, ts)
				}
			})
		})
	}
}
