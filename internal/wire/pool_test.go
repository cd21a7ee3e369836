package wire

import (
	"encoding/binary"
	"testing"

	"repro/internal/vclock"
)

func frameEnvelope() *Envelope {
	return &Envelope{
		Src:   ClientAddr(0, 1),
		Dst:   ServerAddr(0, 2),
		ReqID: 42,
		Msg:   &PutReq{Key: "key00001234", Value: make([]byte, 64), Deps: vclock.Vec{1, 2}},
	}
}

func TestAppendFrameRoundTrip(t *testing.T) {
	e := frameEnvelope()
	f := GetFrame()
	defer PutFrame(f)
	f.AppendEnvelope(e)
	buf := f.B
	size := binary.LittleEndian.Uint32(buf[:4])
	if int(size) != len(buf)-4 {
		t.Fatalf("length prefix %d, body %d", size, len(buf)-4)
	}
	got, err := DecodeEnvelope(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	// Dst is the carrier's: the frame does not carry it.
	if got.Src != e.Src || got.Dst != 0 || got.ReqID != e.ReqID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if p, ok := got.Msg.(*PutReq); !ok || p.Key != "key00001234" || len(p.Value) != 64 {
		t.Fatalf("payload mismatch: %+v", got.Msg)
	}
}

func TestAppendFrameStacks(t *testing.T) {
	// Multiple frames appended to one buffer (the coalescing writer's view)
	// must each decode independently.
	f := GetFrame()
	defer PutFrame(f)
	for i := 0; i < 3; i++ {
		e := frameEnvelope()
		e.ReqID = uint64(i + 1)
		f.AppendEnvelope(e)
	}
	buf := f.B
	for i := 0; i < 3; i++ {
		size := binary.LittleEndian.Uint32(buf[:4])
		env, err := DecodeEnvelope(buf[4 : 4+size])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.ReqID != uint64(i+1) {
			t.Fatalf("frame %d: reqID %d", i, env.ReqID)
		}
		buf = buf[4+size:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestGetFrameLen(t *testing.T) {
	f := GetFrameLen(100)
	if len(f.B) != 100 {
		t.Fatalf("len = %d, want 100", len(f.B))
	}
	PutFrame(f)
	f = GetFrameLen(8)
	if len(f.B) != 8 {
		t.Fatalf("len = %d, want 8", len(f.B))
	}
	PutFrame(f)
	PutFrame(nil) // must not panic
}

func TestOversizeFrameNotPooled(t *testing.T) {
	f := &FrameBuf{Buffer{B: make([]byte, maxPooledCap+1)}}
	PutFrame(f) // must silently drop, not retain
	g := GetFrame()
	if cap(g.B) > maxPooledCap {
		t.Fatalf("pool retained %d-byte buffer", cap(g.B))
	}
	PutFrame(g)
}

// TestEncodeFramePooledAllocFree pins down the PR's alloc win: encoding and
// framing a message through a pooled buffer must not allocate at steady
// state (the seed path allocated 7 times per envelope growing a nil slice).
func TestEncodeFramePooledAllocFree(t *testing.T) {
	e := frameEnvelope()
	// Warm the pool so steady state is measured, not first touch.
	f := GetFrame()
	f.AppendEnvelope(e)
	PutFrame(f)
	n := testing.AllocsPerRun(200, func() {
		f := GetFrame()
		f.AppendEnvelope(e)
		PutFrame(f)
	})
	if n >= 1 {
		t.Fatalf("encode+frame allocs/op = %v, want 0", n)
	}
}

// TestDecodeAllocsBounded guards the decode path: message instantiation and
// field copies are inherent, but alloc count per envelope must stay small.
func TestDecodeAllocsBounded(t *testing.T) {
	f := GetFrame()
	defer PutFrame(f)
	f.AppendEnvelope(frameEnvelope())
	body := f.B[4:]
	n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeEnvelope(body); err != nil {
			t.Fatal(err)
		}
	})
	if n > 6 {
		t.Fatalf("decode allocs/op = %v, want ≤ 6", n)
	}
}
