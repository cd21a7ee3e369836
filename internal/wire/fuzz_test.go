package wire

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes f allocated (GC-independent: TotalAlloc only
// grows).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rawMsg is a message of any type number whose body is whatever body
// writes: it lets a test lay out a body by hand, or name a type nothing
// registered, and still frame it through the envelope codec.
type rawMsg struct {
	t    uint16
	body func(*Buffer)
}

func (m rawMsg) Type() uint16     { return m.t }
func (m rawMsg) Encode(b *Buffer) { m.body(b) }
func (rawMsg) Decode(*Reader)     {}

// frame wraps body in a minimal envelope of type t, encoded by the codec.
func frame(t uint16, body func(*Buffer)) []byte {
	return EncodeEnvelope(nil, &Envelope{Src: ServerAddr(0, 1), ReqID: 1, Msg: rawMsg{t, body}})
}

// TestDecodeCountDoesNotSizeAllocation: an element count is wire input. A
// 9-byte TCopsRotResp frame claiming 1<<26 values used to pre-size a 5 GiB
// slice (80 B per DepKV) before noticing the frame held none of them — any
// peer can send any type to a server, so that was one frame per OOM. The
// same holds for every list decoder and for vectors.
func TestDecodeCountDoesNotSizeAllocation(t *testing.T) {
	huge := func(b *Buffer) { b.Uvarint(maxFieldLen) }
	for name, p := range map[string][]byte{
		"CopsRotResp.Vals": frame(TCopsRotResp, huge),
		"RotReadResp.Vals": frame(TRotReadResp, huge),
		"GSSBcast.GSS":     frame(TGSSBcast, func(b *Buffer) { b.Uvarint(1 << 16) }),
	} {
		var err error
		if n := allocatedBy(func() { _, err = DecodeEnvelope(p) }); n > 64<<10 {
			t.Errorf("%s: a %d-byte frame allocated %d bytes", name, len(p), n)
		}
		if err == nil {
			t.Errorf("%s: short frame decoded", name)
		}
	}
}

// FuzzDecodeEnvelope feeds the decoder what the network can: arbitrary
// bytes. It must never panic; what it allocates is bounded by the frame's
// length, never by a number the frame merely claims; and a frame that
// decodes re-encodes to one that decodes to the same envelope — every
// header field but Dst, which no frame carries (decode leaves it zero).
func FuzzDecodeEnvelope(f *testing.F) {
	seeded := make(map[uint16]bool)
	for _, m := range sampleMessages(rand.New(rand.NewSource(3))) {
		f.Add(frame(m.Type(), m.Encode))
		seeded[m.Type()] = true
	}
	for t := range registry {
		if registry[t] != nil && !seeded[uint16(t)] {
			f.Fatalf("registered message type %d has no seed: add it to sampleMessages", t)
		}
	}
	for _, m := range canonicalMessages() {
		f.Add(frame(m.Type(), m.Encode))
	}
	// The variable-width layouts at their edges: a partition index past 32
	// bits, a ten-byte epoch, an epoch count the frame cannot hold, and a
	// positional value list claiming more values than bytes.
	f.Add(frame(TRotVals, func(b *Buffer) { b.U64(1); b.Uvarint(1 << 32); b.Uvarint(0) }))
	f.Add(frame(TLoRotResp, func(b *Buffer) { b.Uvarint(0); b.Uvarint(1); b.Uvarint(^uint64(0)) }))
	f.Add(frame(TLoRotReq, func(b *Buffer) { b.U64(1); b.Uvarint(7); b.Uvarint(maxFieldLen) }))
	f.Add(frame(TRotSnap, func(b *Buffer) { b.U64(1); b.Vec(nil); b.Uvarint(3); b.Uvarint(0) }))
	f.Add(frame(TCopsRotResp, func(b *Buffer) { b.Uvarint(maxFieldLen) }))
	f.Add(frame(27, func(b *Buffer) { b.U64(1) })) // the retired CC-LO ack type: an unknown type, never a RepAck
	f.Add(frame(TOldReadersResp, func(b *Buffer) { // TestReadersGoldenBytes' widest entry
		encodeReaders(b, []ReaderEntry{{RotID: 1<<64 - 1, T: 1<<64 - 1}})
		b.Uvarint(0) // Cumulative
		b.Uvarint(0)
	}))
	// The compact header at its edges: a stabilizer's index 0xFFFF in the
	// highest DC, a session with a tenant, the widest address and session;
	// and one past each: a DC part above 0x3FFF, an index above 0xFFFF.
	f.Add(EncodeEnvelope(nil, &Envelope{Src: StabilizerAddr(MaxDC), ReqID: 1 << 40, Resp: true, Msg: &Pong{Nonce: 3}}))
	f.Add(EncodeEnvelope(nil, &Envelope{Src: ClientAddr(0, 0xFFFE), Session: MakeSession(7, 3), ReqID: 9, Msg: &Ping{Nonce: 4}}))
	f.Add(EncodeEnvelope(nil, &Envelope{Src: 0xFFFFFFFF, Session: 0xFFFFFFFF, Msg: &RotFwd{
		RotID: 5, Client: StabilizerAddr(MaxDC), Sess: MakeSession(0xFFFF, 1), Keys: []string{"k"},
	}}))
	f.Add([]byte{TPing, 0, 0x80, 0x80, 0x04, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{TPing, 0, 2, 0x80, 0x80, 0x04, 1, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, p []byte) {
		var e *Envelope
		var err error
		// The densest legitimate list (one-byte strings, 16 B headers, grown
		// by append) stays under 64 B per frame byte; the constant covers the
		// message itself and the runtime's own noise.
		if n := allocatedBy(func() { e, err = DecodeEnvelope(p) }); n > 64<<10+128*uint64(len(p)) {
			t.Fatalf("a %d-byte frame allocated %d bytes", len(p), n)
		}
		if err != nil {
			return
		}
		again, err := DecodeEnvelope(EncodeEnvelope(nil, e))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", e.Msg, err)
		}
		if e.Dst != 0 {
			t.Fatalf("decoded Dst %v: no frame carries it", e.Dst)
		}
		normalize(e.Msg)
		normalize(again.Msg)
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("re-encode changed the envelope:\n was: %+v %+v\n now: %+v %+v", e, e.Msg, again, again.Msg)
		}
	})
}
