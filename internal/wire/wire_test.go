package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func TestAddr(t *testing.T) {
	s := ServerAddr(3, 17)
	if !s.IsServer() || s.DC() != 3 || s.Index() != 17 {
		t.Fatalf("server addr fields wrong: %v dc=%d idx=%d", s, s.DC(), s.Index())
	}
	c := ClientAddr(2, 40)
	if c.IsServer() || c.DC() != 2 || c.Index() != 40 {
		t.Fatalf("client addr fields wrong: %v", c)
	}
	st := StabilizerAddr(1)
	if !st.IsStabilizer() || st.DC() != 1 {
		t.Fatalf("stabilizer addr wrong: %v", st)
	}
	if s.IsStabilizer() || c.IsStabilizer() {
		t.Fatal("non-stabilizers flagged as stabilizer")
	}
	for _, a := range []Addr{s, c, st} {
		if a.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestAddrZeroInvalid(t *testing.T) {
	// ClientAddr(0, 0) used to encode to Addr(0), colliding with the
	// transport's "unlearned peer" sentinel; the client flag bit now keeps
	// every constructed address nonzero and Valid.
	c := ClientAddr(0, 0)
	if c == 0 || !c.Valid() || !c.IsClient() || c.IsServer() {
		t.Fatalf("ClientAddr(0,0) = %#x valid=%v", uint32(c), c.Valid())
	}
	if c.DC() != 0 || c.Index() != 0 {
		t.Fatalf("fields: dc=%d idx=%d", c.DC(), c.Index())
	}
	var zero Addr
	if zero.Valid() {
		t.Fatal("zero Addr must be invalid")
	}
	if zero.String() == "" {
		t.Fatal("zero Addr must still format")
	}
	if s := ServerAddr(0, 0); !s.Valid() || s.IsClient() {
		t.Fatalf("ServerAddr(0,0) = %#x", uint32(s))
	}
}

// TestAddrOutOfRangePanics pins the constructors' refusal to silently mask
// out-of-range fields: dc 16384 used to wrap onto dc 0 and alias another
// data center's addresses.
func TestAddrOutOfRangePanics(t *testing.T) {
	cases := map[string]func(){
		"server dc high":   func() { ServerAddr(dcMask+1, 0) },
		"server dc neg":    func() { ServerAddr(-1, 0) },
		"server part high": func() { ServerAddr(0, stabilizer+1) },
		"server part neg":  func() { ServerAddr(0, -1) },
		"server part stab": func() { ServerAddr(0, stabilizer) }, // would alias StabilizerAddr
		"stabilizer dc":    func() { StabilizerAddr(dcMask + 1) },
		"client dc high":   func() { ClientAddr(dcMask+1, 0) },
		"client id high":   func() { ClientAddr(0, 0x10000) },
		"client id neg":    func() { ClientAddr(0, -1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor masked instead of panicking", name)
				}
			}()
			f()
		}()
	}
	// The extremes of the legal ranges must still construct.
	if a := ServerAddr(dcMask, stabilizer-1); !a.IsServer() || a.IsStabilizer() || a.DC() != dcMask {
		t.Fatalf("max server addr wrong: %v", a)
	}
	if a := StabilizerAddr(dcMask); !a.IsStabilizer() || a.DC() != dcMask {
		t.Fatalf("max stabilizer addr wrong: %v", a)
	}
	if a := ClientAddr(dcMask, 0xFFFF); !a.IsClient() || a.Index() != 0xFFFF {
		t.Fatalf("max client addr wrong: %v", a)
	}
}

func TestAddrDistinct(t *testing.T) {
	seen := make(map[Addr]bool)
	for dc := 0; dc < 4; dc++ {
		for i := 0; i < 64; i++ {
			for _, a := range []Addr{ServerAddr(dc, i), ClientAddr(dc, i)} {
				if seen[a] {
					t.Fatalf("address collision: %v", a)
				}
				seen[a] = true
			}
		}
	}
}

// sampleMessages returns one populated instance of every message type.
func sampleMessages(r *rand.Rand) []Message {
	vec := func() vclock.Vec {
		v := vclock.New(1 + r.Intn(3))
		for i := range v {
			v[i] = r.Uint64() >> 8
		}
		return v
	}
	val := make([]byte, r.Intn(64))
	r.Read(val)
	// Read responses are positional: a decoded KV has no key.
	kvs := []KV{{Value: val, TS: r.Uint64(), Src: 1}, {Value: nil, TS: 0}}
	deps := []LoDep{{Key: "x", TS: 12}, {Key: "yy", TS: 999}}
	readers := []ReaderEntry{{RotID: 7, T: 3}, {RotID: 1 << 40, T: 88}}
	return []Message{
		&PutReq{Key: "k1", Value: val, Deps: vec()},
		&PutResp{TS: r.Uint64(), GSS: vec()},
		&RotCoordReq{
			RotID: r.Uint64(), Mode: 1, SeenGSS: vec(),
			Groups: []ReadGroup{{Part: 3, Keys: []string{"a", "b"}}, {Part: 9, Keys: nil}},
		},
		&RotCoordResp{RotID: 5, SV: vec()},
		&RotFwd{RotID: 9, Client: ClientAddr(1, 2), Sess: MakeSession(3, 4), SV: vec(), Keys: []string{"z"}},
		&RotVals{RotID: 11, Part: 3, Vals: kvs},
		&RotSnap{RotID: 12, SV: vec(), Vals: kvs},
		&RotReadReq{SV: vec(), Keys: []string{"q", "w"}},
		&RotReadResp{Vals: kvs},
		&RotRefused{RotID: 13, Frontier: vec()},
		&RepBatch{SrcDC: 1, HighTS: 2000, Ups: []Update{
			{Key: "u", Value: val, TS: 5, DV: vec()},
			{Key: "v", Value: nil, TS: 6, DV: vec()},
		}},
		&RepAck{},
		&VVReport{Part: 4, VV: vec()},
		&GSSBcast{GSS: vec()},
		&LoPutReq{Key: "lk", Value: val, Deps: deps},
		&LoPutResp{TS: 77},
		&LoRotReq{RotID: 1<<33 | 4, Epochs: []uint64{2, 0, 7}, Keys: []string{"m", "n"}},
		&LoRotResp{Vals: kvs, Epochs: []uint64{3, 1}},
		&OldReadersReq{Deps: deps, Epochs: []uint64{0, 5}},
		&OldReadersReq{Deps: deps, Epochs: []uint64{0, 5}, Await: true},
		&OldReadersResp{Readers: readers, Cumulative: 42, Epochs: []uint64{1, 1, 4}},
		&LoRepUpdate{
			SrcDC: 1, Key: "rk", Value: val, TS: 10,
			Deps: deps, OldReaders: readers,
		},
		&DepCheckReq{Deps: []LoDep{{Key: "d", TS: 44}, {Key: "e", TS: 45, Src: 2}, {Key: "d", TS: 46, Src: 1}}},
		&DepCheckResp{},
		&ErrorResp{Code: 2, Text: "boom"},
		&Ping{Nonce: 1},
		&Pong{Nonce: 1},
		&Busy{Echo: 1 << 50, RetryAfterMicros: 2500},
		&CopsRotReq{Keys: []string{"c", "d"}},
		&CopsRotResp{Vals: []DepKV{{KV: kvs[0], Deps: deps}, {KV: kvs[1]}}},
		&CopsVerReq{Key: "c", TS: 12, Src: 1},
		&CopsVerResp{Val: kvs[0]},
	}
}

func roundtrip(t *testing.T, m Message) Message {
	t.Helper()
	var b Buffer
	m.Encode(&b)
	out, err := New(m.Type())
	if err != nil {
		t.Fatalf("New(%d): %v", m.Type(), err)
	}
	r := NewReader(b.B)
	out.Decode(r)
	if r.Err() != nil {
		t.Fatalf("decode %T: %v", m, r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode %T left %d bytes", m, r.Remaining())
	}
	return out
}

// normalize maps empty slices to nil so reflect.DeepEqual treats a decoded
// empty collection and an encoded nil collection as equal.
func normalize(m Message) {
	v := reflect.ValueOf(m).Elem()
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Len() == 0 && !v.IsNil() {
				v.Set(reflect.Zero(v.Type()))
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(v)
}

func TestRoundTripAllMessages(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range sampleMessages(r) {
		got := roundtrip(t, m)
		normalize(m)
		normalize(got)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
	}
}

func TestQuickRoundTripPutReq(t *testing.T) {
	f := func(key string, value []byte, a, b, c uint64) bool {
		in := &PutReq{Key: key, Value: value, Deps: vclock.Vec{a, b, c}}
		var buf Buffer
		in.Encode(&buf)
		out := new(PutReq)
		r := NewReader(buf.B)
		out.Decode(r)
		if r.Err() != nil {
			return false
		}
		normalize(in)
		normalize(out)
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeRoundTrip: every header field but Dst survives the codec.
// Dst is not carried — the receiving carrier knows it and stamps it — so
// the decoded envelope's Dst is zero.
func TestEnvelopeRoundTrip(t *testing.T) {
	e := &Envelope{
		Src:     ClientAddr(0, 5),
		Dst:     ServerAddr(1, 2),
		ReqID:   77,
		Resp:    true,
		Session: MakeSession(2, 9),
		Msg:     &PutResp{TS: 9, GSS: vclock.Vec{1, 2}},
	}
	buf := EncodeEnvelope(nil, e)
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != e.Src || got.ReqID != 77 || !got.Resp || got.Session != e.Session {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Dst != 0 {
		t.Fatalf("Dst = %v decoded; the frame must not carry it", got.Dst)
	}
	if resp, ok := got.Msg.(*PutResp); !ok || resp.TS != 9 {
		t.Fatalf("payload mismatch: %+v", got.Msg)
	}
}

// TestAddrCodec: the address codec is a bijection on uint32 — every value
// round-trips, valid endpoint or not — and it sizes addresses by their
// parts: 2 B for a small partition or client, 4 B for a stabilizer.
func TestAddrCodec(t *testing.T) {
	sizes := map[Addr]int{
		ServerAddr(0, 3):         2,
		ClientAddr(0, 3):         2,
		ServerAddr(31, 127):      2,
		ServerAddr(32, 128):      4,
		ClientAddr(0, 0xFFFE):    4,
		StabilizerAddr(0):        4,
		StabilizerAddr(MaxDC):    6,
		ClientAddr(MaxDC, 0):     4,
		0:                        2,
		Addr(0xFFFFFFFF):         6,
		Addr(serverBit | 0xFFFF): 4,
	}
	for a, want := range sizes {
		var b Buffer
		b.Addr(a)
		if len(b.B) != want {
			t.Errorf("%v (%#x): %d B, want %d", a, uint32(a), len(b.B), want)
		}
	}
	r := rand.New(rand.NewSource(4))
	var b Buffer
	var in []Addr
	for a := range sizes {
		in = append(in, a)
	}
	for i := 0; i < 10000; i++ {
		in = append(in, Addr(r.Uint32()))
	}
	for _, a := range in {
		b.Addr(a)
	}
	rd := NewReader(b.B)
	for _, a := range in {
		if got := rd.Addr(); got != a {
			t.Fatalf("%#x decoded as %#x", uint32(a), uint32(got))
		}
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", rd.Err(), rd.Remaining())
	}
}

// TestCompactFieldsOutOfRange: an address part, a session or a CC-LO ROT
// sequence too wide for its field fails with the sticky ErrTooLarge. None
// wraps onto a smaller value — that would alias another process, session
// or ROT.
func TestCompactFieldsOutOfRange(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b Buffer
		for _, v := range vs {
			b.Uvarint(v)
		}
		return b.B
	}
	for name, p := range map[string][]byte{
		"DC part above 0x3FFF": uv(0x10000, 0),
		"index above 0xFFFF":   uv(2, 0x10000),
		"both past 32 bits":    uv(1<<32, 1<<32),
	} {
		r := NewReader(p)
		if a := r.Addr(); a != 0 || !errors.Is(r.Err(), ErrTooLarge) {
			t.Errorf("%s: decoded %#x, err %v; want ErrTooLarge", name, uint32(a), r.Err())
		}
		if r.Uvarint() != 0 || !errors.Is(r.Err(), ErrTooLarge) {
			t.Errorf("%s: the error is not sticky", name)
		}
	}
	hdr := func(session uint64) []byte {
		b := Buffer{B: []byte{TPing, 2}}
		b.Addr(ClientAddr(0, 1))
		b.Uvarint(session)
		b.Uvarint(1)
		b.U64(7)
		return b.B
	}
	if _, err := DecodeEnvelope(hdr(1<<32 - 1)); err != nil {
		t.Fatalf("widest session: %v", err)
	}
	if e, err := DecodeEnvelope(hdr(1 << 32)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("envelope session 1<<32: %+v, err %v; want ErrTooLarge", e, err)
	}
	for _, c := range []struct {
		m    Message
		body []byte
	}{
		{new(RotFwd), append(uv(1, 1, 3, 1<<32), 0, 0)},   // RotID, Client, a session of 1<<32
		{new(LoRotReq), append(uv(1, 3, 1<<32), 0, 0, 0)}, // Client, a sequence of 1<<32
	} {
		r := NewReader(c.body)
		c.m.Decode(r)
		if !errors.Is(r.Err(), ErrTooLarge) {
			t.Errorf("%T: decoded %+v, err %v; want ErrTooLarge", c.m, c.m, r.Err())
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range sampleMessages(r) {
		full := EncodeEnvelope(nil, &Envelope{
			Src: ClientAddr(1, 300), Session: MakeSession(1, 2), ReqID: 1 << 20, Msg: m,
		})
		// Every strict prefix must fail cleanly, not panic.
		for cut := 0; cut < len(full); cut += 1 + len(full)/37 {
			if _, err := DecodeEnvelope(full[:cut]); err == nil {
				// A prefix may accidentally decode if the message has
				// trailing optional content; all our decoders consume fixed
				// structure, so an error is expected except at full length.
				t.Errorf("%T: truncation at %d/%d decoded successfully", m, cut, len(full))
			}
		}
		if _, err := DecodeEnvelope(full); err != nil {
			t.Errorf("%T: full decode failed: %v", m, err)
		}
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := DecodeEnvelope(frame(200, func(*Buffer) {})); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if got := r.U32(); got != 0 {
		t.Fatalf("post-error read = %d, want 0", got)
	}
	if s := r.String(); s != "" {
		t.Fatalf("post-error string = %q", s)
	}
}

func TestOversizeFieldRejected(t *testing.T) {
	var b Buffer
	b.Uvarint(maxFieldLen + 1)
	r := NewReader(b.B)
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversize field must be rejected")
	}
}

func TestBufferPrimitives(t *testing.T) {
	var b Buffer
	b.U8(1)
	b.U16(2)
	b.U32(3)
	b.U64(4)
	b.Uvarint(300)
	b.String("hi")
	b.Bytes([]byte{9, 9})
	r := NewReader(b.B)
	if r.U8() != 1 || r.U16() != 2 || r.U32() != 3 || r.U64() != 4 ||
		r.Uvarint() != 300 || r.String() != "hi" {
		t.Fatal("primitive round trip mismatch")
	}
	bs := r.Bytes()
	if len(bs) != 2 || bs[0] != 9 {
		t.Fatalf("bytes mismatch: %v", bs)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}
