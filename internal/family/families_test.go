package family_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cclo"
	"repro/internal/cops"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// seamLog records, in order, what a real server did at the seams a test can
// reach from outside: its WAL appends, its answers, and the messages its
// scripted peers received. "install" has no seam of its own; it is noticed —
// ahead of whatever is being recorded — when the key's newest version moved.
type seamLog struct {
	mu      sync.Mutex
	log     []string
	appends [][]uint8     // record kinds of each synced append
	latest  func() uint64 // newest visible timestamp of the key under test
	seen    uint64        // latest() at the previous event
	shipped chan struct{} // signalled per "ship"
}

func (l *seamLog) add(ev string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts := l.latest(); ts != l.seen {
		l.seen = ts
		l.log = append(l.log, "install")
	}
	l.log = append(l.log, ev)
}

// take returns and clears the events so far. "ship" is left out: the stream
// launches on its own goroutine, concurrently with the answer to the client,
// so all that is pinned is that it follows the install.
func (l *seamLog) take(t *testing.T) []string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := slices.Index(l.log, "ship"); s >= 0 && s < slices.Index(l.log, "install") {
		t.Fatalf("update shipped before it was installed: %q", l.log)
	}
	out := slices.DeleteFunc(l.log, func(ev string) bool { return ev == "ship" })
	l.log = nil
	return out
}

// recDurable records every synced append ahead of performing it.
type recDurable struct {
	wal.Durability
	l *seamLog
}

func (d recDurable) AppendSynced(recs []wal.Record, synced func(error)) error {
	kinds := make([]uint8, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	d.l.add("append")
	d.l.mu.Lock()
	d.l.appends = append(d.l.appends, kinds)
	d.l.mu.Unlock()
	return d.Durability.AppendSynced(recs, synced)
}

// recNet records what the node attached at addr answers.
type recNet struct {
	transport.Network
	addr wire.Addr
	l    *seamLog
}

type recNode struct {
	transport.Node
	l *seamLog
}

func (n recNet) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	node, err := n.Network.Attach(addr, h)
	if err != nil || addr != n.addr {
		return node, err
	}
	return recNode{node, n.l}, nil
}

func (n recNode) Respond(to wire.From, reqID uint64, m wire.Message) error {
	switch m.(type) {
	case *wire.LoPutResp:
		n.l.add("respond")
	case *wire.RepAck:
		n.l.add("ack")
	}
	return n.Node.Respond(to, reqID, m)
}

// server is what the test needs of either family's partition server.
type server interface {
	Start()
	Close() error
	ForEachLatest(func(key string, value []byte, ts uint64, srcDC uint8))
}

// TestCopsPlusOneStep is the paper's framing of CC-LO as an executable
// statement: driven through the same PUT and the same replicated update, the
// real cops and cclo servers do the same things in the same order — append,
// install, then answer; dependency check first on the replication path —
// and the one thing cclo adds, on both paths, is a readers check before the
// append, whose result it persists AHEAD of the install record.
func TestCopsPlusOneStep(t *testing.T) {
	r := ring.New(2)
	var own, other string // keys of partition 0 (under test) and partition 1 (scripted)
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if r.Owner(k) == 0 {
			own = k
		} else {
			other = k
		}
	}
	deps := []wire.LoDep{{Key: other, TS: 7, Src: 1}}

	logs := make(map[string][2][]string)
	for _, fam := range []struct {
		name    string
		build   func(d wal.Durability, net transport.Network) (server, error)
		appends [][]uint8
	}{
		{"cops", func(d wal.Durability, net transport.Network) (server, error) {
			return cops.NewServer(cops.Config{NumDCs: 2, NumParts: 2, Durable: d}, net)
		}, [][]uint8{{wal.RecInstall}, {wal.RecInstall}}},
		{"cclo", func(d wal.Durability, net transport.Network) (server, error) {
			return cclo.NewServer(cclo.Config{NumDCs: 2, NumParts: 2, Durable: d}, net)
		}, [][]uint8{{wal.RecReaders, wal.RecInstall}, {wal.RecReaders, wal.RecInstall}}},
	} {
		t.Run(fam.name, func(t *testing.T) {
			local := transport.NewLocal(transport.LatencyModel{})
			defer local.Close()
			l := &seamLog{latest: func() uint64 { return 0 }, shipped: make(chan struct{}, 4)}
			dlog, err := wal.Open(wal.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer dlog.Close()

			// Partition 1 of the server's DC answers its checks; the sibling
			// partition in DC 1 takes (and acks) what it ships, and is the
			// origin of the replicated update.
			if _, err := local.Attach(wire.ServerAddr(0, 1), transport.HandlerFunc(
				func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
					switch m.(type) {
					case *wire.DepCheckReq:
						l.add("dep-check")
						_ = n.Respond(src, reqID, &wire.DepCheckResp{})
					case *wire.OldReadersReq:
						l.add("readers-check")
						_ = n.Respond(src, reqID, &wire.OldReadersResp{
							Readers: []wire.ReaderEntry{{RotID: 5<<32 | 1, T: 3}}, Cumulative: 1})
					}
				})); err != nil {
				t.Fatal(err)
			}
			origin, err := local.Attach(wire.ServerAddr(1, 0), transport.HandlerFunc(
				func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
					if _, ok := m.(*wire.LoRepUpdate); ok {
						l.add("ship")
						_ = n.Respond(src, reqID, &wire.RepAck{})
						l.shipped <- struct{}{}
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			client, err := local.Attach(wire.ClientAddr(0, 1), transport.HandlerFunc(
				func(transport.Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}

			srv, err := fam.build(recDurable{dlog, l}, recNet{local, wire.ServerAddr(0, 0), l})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			l.mu.Lock()
			l.latest = func() (ts uint64) {
				srv.ForEachLatest(func(k string, _ []byte, kts uint64, _ uint8) {
					if k == own {
						ts = kts
					}
				})
				return ts
			}
			l.mu.Unlock()
			srv.Start()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			if _, err := client.Call(ctx, wire.ServerAddr(0, 0), &wire.LoPutReq{Key: own, Value: []byte("v1"), Deps: deps}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-l.shipped:
			case <-ctx.Done():
				t.Fatal("the PUT was never shipped to the other DC")
			}
			put := l.take(t)

			if _, err := origin.Call(ctx, wire.ServerAddr(0, 0), &wire.LoRepUpdate{
				SrcDC: 1, Key: own, Value: []byte("v2"), TS: 90, Deps: deps}); err != nil {
				t.Fatal(err)
			}
			logs[fam.name] = [2][]string{put, l.take(t)}
			if !reflect.DeepEqual(l.appends, fam.appends) {
				t.Fatalf("appended record kinds %v, want %v", l.appends, fam.appends)
			}
		})
	}

	want := [2][]string{
		{"append", "install", "respond"},
		{"dep-check", "append", "install", "ack"},
	}
	if !reflect.DeepEqual(logs["cops"], want) {
		t.Fatalf("cops: PUT %q, replicated update %q; want %q", logs["cops"][0], logs["cops"][1], want)
	}
	plusOne := [2][]string{
		{"readers-check", "append", "install", "respond"},
		{"dep-check", "readers-check", "append", "install", "ack"},
	}
	if !reflect.DeepEqual(logs["cclo"], plusOne) {
		t.Fatalf("cclo: PUT %q, replicated update %q; want cops plus one step, %q", logs["cclo"][0], logs["cclo"][1], plusOne)
	}
}
