package transport

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// endpointCallRow is one BenchmarkEndpointCall cell as written to
// $BENCH_TRANSPORT_JSON, in the shape of the committed BENCH_transport.json
// (which adds the parent commit's column beside each).
type endpointCallRow struct {
	Carrier  string `json:"carrier"`
	Endpoint string `json:"endpoint"`
	Change   struct {
		NsPerCall     float64 `json:"ns_per_call"`
		BytesPerCall  float64 `json:"bytes_per_call"`
		AllocsPerCall float64 `json:"allocs_per_call"`
	} `json:"change"`
}

// BenchmarkEndpointCall is the transport's layer number: one Ping/Pong round
// trip through everything a Call crosses — envelope, codec, batcher, carrier,
// routing, handler, response matching — on the zero-latency simulator and on
// loopback TCP, from a plain node and from a mux session. Bytes and allocs
// are process-wide (both ends of the round trip), so an envelope or a routed
// request that starts escaping shows up as +1 alloc per message here before
// it shows up as throughput anywhere. With BENCH_TRANSPORT_JSON set the
// cells are also written there as JSON.
func BenchmarkEndpointCall(b *testing.B) {
	srv := wire.ServerAddr(0, 0)
	carriers := []struct {
		name string
		mk   func() Network
	}{
		{"local", func() Network { return NewLocal(LatencyModel{}) }},
		{"tcp", func() Network { return NewTCP(map[wire.Addr]string{srv: freeAddr(b)}) }},
	}
	var rows []endpointCallRow
	for _, c := range carriers {
		for _, endpoint := range []string{"node", "session"} {
			row := endpointCallRow{Carrier: c.name, Endpoint: endpoint}
			b.Run(c.name+"/"+endpoint, func(b *testing.B) {
				net := c.mk()
				defer net.Close()
				if _, err := net.Attach(srv, &echoHandler{}); err != nil {
					b.Fatal(err)
				}
				var cli Node
				if endpoint == "node" {
					n, err := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
					if err != nil {
						b.Fatal(err)
					}
					cli = n
				} else {
					mux, err := net.AttachMux(wire.ClientAddr(0, 1), 1)
					if err != nil {
						b.Fatal(err)
					}
					s, err := mux.Session(wire.MakeSession(1, 1), nil)
					if err != nil {
						b.Fatal(err)
					}
					cli = s
				}
				ctx := context.Background()
				call := func(nonce uint64) {
					resp, err := cli.Call(ctx, srv, &wire.Ping{Nonce: nonce})
					if err != nil {
						b.Fatal(err)
					}
					if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != nonce {
						b.Fatalf("resp %#v, want Pong{%d}", resp, nonce)
					}
				}
				call(0) // dial, learn the route, start the link batchers
				var before, after runtime.MemStats
				b.ReportAllocs()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call(uint64(i) + 1)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				// The sizing calls overwrite each other; the last one, at
				// the full b.N, is what stays.
				ch, n := &row.Change, float64(b.N)
				ch.NsPerCall = float64(b.Elapsed().Nanoseconds()) / n
				ch.BytesPerCall = float64(after.TotalAlloc-before.TotalAlloc) / n
				ch.AllocsPerCall = float64(after.Mallocs-before.Mallocs) / n
			})
			if row.Change.NsPerCall > 0 { // not filtered out by -bench
				rows = append(rows, row)
			}
		}
	}
	if path := os.Getenv("BENCH_TRANSPORT_JSON"); path != "" {
		doc := map[string]any{"endpoint_call": map[string]any{"rows": rows}}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			b.Fatalf("write %s: %v", path, err)
		}
	}
}
