package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/vclock"
)

// canonicalMessages returns one instance of every message type, shaped as
// the gated workloads send it: 12-byte keys, 8-byte values, 2 DCs, a ROT leg
// of 4 keys (the coordinator request: 4 one-key groups), a 4-partition epoch
// vector, a PUT with 19 nearest dependencies and a readers check answered
// with 4 old readers. HLC readings are as large as a 2026 clock makes them;
// Lamport timestamps are in the millions and Contrarian's per-session ROT
// ids in the hundred thousands, as a half-minute run leaves them. Clients
// are sessions on their DC's mux at client id 0xFFFE, as the benchmark
// attaches it.
// Read results carry their keys, so an encoder that echoes them shows.
func canonicalMessages() []Message {
	key := func(i int) string { return fmt.Sprintf("key-%08d", i) }
	keys := []string{key(1), key(2), key(3), key(4)}
	val := []byte("value-08")
	const hlc, lamport = 3_700_000_000_000_000_000, 1_500_000
	vec := vclock.Vec{hlc, hlc - 5_000}
	epochs := []uint64{1, 0, 3, 0}
	rotID := uint64(ClientAddr(0, 1001))<<32 | 77
	vals := func(ts uint64) []KV {
		out := make([]KV, len(keys))
		for i, k := range keys {
			out[i] = KV{Key: k, Value: val, TS: ts, Src: uint8(i % 2)}
		}
		return out
	}
	deps := make([]LoDep, 19)
	for i := range deps {
		deps[i] = LoDep{Key: fmt.Sprintf("dep-%08d", i), TS: lamport - uint64(i)*1_000, Src: uint8(i % 2)}
	}
	readers := make([]ReaderEntry, 4)
	for i := range readers {
		readers[i] = ReaderEntry{RotID: uint64(ClientAddr(0, 1000+i))<<32 | uint64(50+i), T: lamport + uint64(i)}
	}
	groups := make([]ReadGroup, len(keys))
	for i, k := range keys {
		groups[i] = ReadGroup{Part: uint32(i), Keys: []string{k}}
	}
	ups := make([]Update, len(keys))
	for i, k := range keys {
		ups[i] = Update{Key: k, Value: val, TS: hlc + uint64(i), DV: vec}
	}
	depKVs := make([]DepKV, len(keys))
	for i, kv := range vals(lamport) {
		depKVs[i] = DepKV{KV: kv, Deps: deps[:2]}
	}
	return []Message{
		&PutReq{Key: key(1), Value: val, Deps: vec},
		&PutResp{TS: hlc, GSS: vec},
		&RotCoordReq{RotID: 123_456, Mode: 1, SeenGSS: vec, Groups: groups},
		&RotCoordResp{RotID: 123_456, SV: vec},
		&RotFwd{RotID: 123_456, Client: ClientAddr(0, 0xFFFE), Sess: MakeSession(0, 3), SV: vec, Keys: keys},
		&RotVals{RotID: 123_456, Part: 2, Vals: vals(hlc)},
		&RotSnap{RotID: 123_456, SV: vec, Vals: vals(hlc)},
		&RotReadReq{SV: vec, Keys: keys},
		&RotReadResp{Vals: vals(hlc)},
		&RotRefused{RotID: 123_456, Frontier: vec},
		&RepBatch{SrcDC: 0, HighTS: hlc + 9, Ups: ups},
		&RepAck{},
		&VVReport{Part: 2, VV: vec},
		&GSSBcast{GSS: vec},
		&LoPutReq{Key: key(1), Value: val, Deps: deps},
		&LoPutResp{TS: lamport},
		&LoRotReq{RotID: rotID, SeenTS: lamport, Epochs: epochs, Keys: keys},
		&LoRotResp{Vals: vals(lamport), Epochs: epochs},
		&OldReadersReq{Deps: deps, Epochs: epochs},
		&OldReadersResp{Readers: readers, Cumulative: 12, Epochs: epochs},
		&LoRepUpdate{SrcDC: 0, Key: key(1), Value: val, TS: lamport, Deps: deps, OldReaders: readers},
		&DepCheckReq{Deps: deps},
		&DepCheckResp{},
		&ErrorResp{Code: 500, Text: "cclo: readers check failed"},
		&Ping{Nonce: 3},
		&Pong{Nonce: 3},
		&Busy{Echo: rotID, RetryAfterMicros: 2_500},
		&CopsRotReq{Keys: keys},
		&CopsRotResp{Vals: depKVs},
		&CopsVerReq{Key: key(1), TS: lamport, Src: 1},
		&CopsVerResp{Val: KV{Key: key(1), Value: val, TS: lamport, Src: 1}},
	}
}

// wireSizes pins each canonical message's encoded body size (the envelope
// header comes on top: envelopeSizes): Parent is the encoding before
// addresses, sessions and ROT ids went compact and RotCoordReq lost its
// SeenLocal, Change the encoding now. A size that moves is a format change:
// update Change in the same commit and say why.
var wireSizes = map[string]struct{ Parent, Change int }{
	"PutReq":         {39, 39},
	"PutResp":        {25, 25},
	"RotCoordReq":    {95, 82},
	"RotCoordResp":   {25, 20},
	"RotFwd":         {86, 78},
	"RotVals":        {82, 77},
	"RotSnap":        {98, 93},
	"RotReadReq":     {70, 70},
	"RotReadResp":    {73, 73},
	"RotRefused":     {25, 25},
	"RepBatch":       {198, 198},
	"RepAck":         {0, 0},
	"VVReport":       {18, 18},
	"GSSBcast":       {17, 17},
	"LoPutReq":       {346, 346},
	"LoPutResp":      {3, 3},
	"LoRotReq":       {69, 65},
	"LoRotResp":      {78, 78},
	"OldReadersReq":  {330, 330},
	"OldReadersResp": {43, 35},
	"LoRepUpdate":    {387, 379},
	"DepCheckReq":    {324, 324},
	"DepCheckResp":   {0, 0},
	"ErrorResp":      {29, 29},
	"Ping":           {8, 8},
	"Pong":           {8, 8},
	"Busy":           {12, 12},
	"CopsRotReq":     {53, 53},
	"CopsRotResp":    {193, 193},
	"CopsVerReq":     {17, 17},
	"CopsVerResp":    {13, 13},
}

// TestWireSizes pins the size table; with BENCH_WIRE_JSON set it also writes
// the table there, one row per type in canonicalMessages' order, followed by
// the envelope header rows.
func TestWireSizes(t *testing.T) {
	type row struct {
		Type   string `json:"type"`
		Parent int    `json:"parent"`
		Change int    `json:"change"`
	}
	var rows []row
	seen := make(map[uint16]bool)
	for _, m := range canonicalMessages() {
		var b Buffer
		m.Encode(&b)
		name := TypeName(m.Type())
		seen[m.Type()] = true
		want, ok := wireSizes[name]
		switch {
		case !ok:
			t.Errorf("%s: %d B, and no pinned size", name, len(b.B))
		case len(b.B) != want.Change:
			t.Errorf("%s: %d B, pinned at %d", name, len(b.B), want.Change)
		}
		rows = append(rows, row{Type: name, Parent: want.Parent, Change: len(b.B)})
	}
	for _, typ := range Types() {
		if !seen[typ] {
			t.Errorf("registered message type %s has no canonical instance", TypeName(typ))
		}
	}
	if path := os.Getenv("BENCH_WIRE_JSON"); path != "" {
		data, err := json.MarshalIndent(map[string]any{
			"sizes":    map[string]any{"rows": rows},
			"envelope": map[string]any{"rows": envelopeRows()},
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
}

// TestReadResponsesEchoNoKey: the client holds the keys it asked for, so no
// read response carries one back. The canonical read results carry their
// keys in KV.Key; none may reach the encoding.
func TestReadResponsesEchoNoKey(t *testing.T) {
	reads := 0
	for _, m := range canonicalMessages() {
		switch m.(type) {
		case *RotVals, *RotSnap, *RotReadResp, *LoRotResp, *CopsRotResp, *CopsVerResp:
		default:
			continue
		}
		reads++
		var b Buffer
		m.Encode(&b)
		if bytes.Contains(b.B, []byte("key-0000")) {
			t.Errorf("%s echoes a key: % x", TypeName(m.Type()), b.B)
		}
	}
	if reads != 6 {
		t.Fatalf("checked %d read responses, want 6", reads)
	}
}

// envelopeSizes pins the envelope header — every byte of a frame before the
// message body — of each shape of frame the gated workloads send, with the
// benchmark's addresses (a DC mux at client id 0xFFFE, small session ids)
// and a request id a run reaches. Parent is the fixed layout: a 2 B type,
// the flags, a 4 B Src, a 4 B Dst and a 4 B session. Change is the layout
// now: a 1 B type, the flags, Src through the address codec, the session as
// a uvarint, and no Dst.
var envelopeSizes = []struct {
	Name           string
	Env            Envelope
	Parent, Change int
}{
	{"server→server one-way", Envelope{Src: ServerAddr(0, 2), Dst: ServerAddr(1, 2)}, 12, 5},
	{"client request with session", Envelope{Src: ClientAddr(0, 0xFFFE), Dst: ServerAddr(0, 2), Session: MakeSession(0, 3), ReqID: 300_000}, 18, 10},
	{"response", Envelope{Src: ServerAddr(0, 2), Dst: ClientAddr(0, 0xFFFE), Session: MakeSession(0, 3), ReqID: 300_000, Resp: true}, 18, 8},
	{"server→client push", Envelope{Src: ServerAddr(0, 2), Dst: ClientAddr(0, 0xFFFE), Session: MakeSession(0, 3)}, 16, 6},
}

type headerRow struct {
	Frame  string `json:"frame"`
	Parent int    `json:"parent"`
	Change int    `json:"change"`
}

// envelopeRows encodes each envelopeSizes header, with an empty body.
func envelopeRows() []headerRow {
	var rows []headerRow
	for _, c := range envelopeSizes {
		e := c.Env
		e.Msg = &RepAck{}
		rows = append(rows, headerRow{Frame: c.Name, Parent: c.Parent, Change: len(EncodeEnvelope(nil, &e))})
	}
	return rows
}

// TestEnvelopeHeaderSizes pins the envelope header table.
func TestEnvelopeHeaderSizes(t *testing.T) {
	for i, row := range envelopeRows() {
		if want := envelopeSizes[i].Change; row.Change != want {
			t.Errorf("%s: %d B header, pinned at %d", row.Frame, row.Change, want)
		}
	}
}
