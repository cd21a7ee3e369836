package wire

import (
	"bytes"
	"testing"

	"repro/internal/vclock"
)

func decodeMsg(t *testing.T, m Message) Message {
	t.Helper()
	f := GetFrame()
	defer PutFrame(f)
	f.AppendEnvelope(&Envelope{Src: ServerAddr(0, 1), Dst: ServerAddr(0, 2), Msg: m})
	env, err := DecodeEnvelope(f.B[FrameHdrLen:])
	if err != nil {
		t.Fatal(err)
	}
	return env.Msg
}

// TestRecycleNoBleedThrough decodes a large message, recycles it, and
// decodes a smaller one of the same type: no field of the first message may
// leak into the second, and previously retained deep data must stay intact.
func TestRecycleNoBleedThrough(t *testing.T) {
	big := &RepBatch{
		SrcDC: 2, HighTS: 999,
		Ups: []Update{
			{Key: "aaa", Value: []byte("old-value-1"), TS: 1, DV: vclock.Vec{1, 0}},
			{Key: "bbb", Value: []byte("old-value-2"), TS: 2, DV: vclock.Vec{2, 0}},
			{Key: "ccc", Value: []byte("old-value-3"), TS: 3, DV: vclock.Vec{3, 0}},
		},
	}
	m1 := decodeMsg(t, big).(*RepBatch)
	// A handler would retain the decoded updates' deep fields (store
	// install); keep copies of the slice headers to check they survive.
	keptVal := m1.Ups[0].Value
	keptDV := m1.Ups[0].DV
	Recycle(m1)

	small := &RepBatch{SrcDC: 1, HighTS: 6,
		Ups: []Update{{Key: "zzz", Value: []byte("new"), TS: 9, DV: vclock.Vec{9, 9}}}}
	m2 := decodeMsg(t, small).(*RepBatch)
	if m2.SrcDC != 1 || m2.HighTS != 6 || len(m2.Ups) != 1 {
		t.Fatalf("recycled decode bled through: %+v", m2)
	}
	if m2.Ups[0].Key != "zzz" || string(m2.Ups[0].Value) != "new" {
		t.Fatalf("recycled decode wrong payload: %+v", m2.Ups[0])
	}
	// Data retained from the first decode must be untouched by the second.
	if !bytes.Equal(keptVal, []byte("old-value-1")) || keptDV[0] != 1 {
		t.Fatalf("recycling corrupted retained data: %q %v", keptVal, keptDV)
	}
	Recycle(m2)
}

// TestRecycleUnpooledNoop checks Recycle ignores unpooled types and nil.
func TestRecycleUnpooledNoop(t *testing.T) {
	Recycle(nil)
	Recycle(&PutResp{TS: 1}) // response type: never pooled
}

// TestResetPolicies spot-checks the retention contracts: fields a handler
// may keep are dropped (nil), containers nobody retains keep capacity.
func TestResetPolicies(t *testing.T) {
	pr := &PutReq{Key: "k", Value: []byte("v"), Deps: vclock.Vec{1}}
	pr.Reset()
	if pr.Key != "" || pr.Value != nil || pr.Deps != nil {
		t.Fatalf("PutReq.Reset kept retainable fields: %+v", pr)
	}

	rb := &RepBatch{HighTS: 9, Ups: make([]Update, 8, 16)}
	rb.Reset()
	if rb.HighTS != 0 || len(rb.Ups) != 0 || cap(rb.Ups) != 16 {
		t.Fatalf("RepBatch.Reset: %+v (cap %d)", rb, cap(rb.Ups))
	}

	lp := &LoPutReq{Key: "k", Value: []byte("v"), Deps: []LoDep{{Key: "d", TS: 1}}}
	lp.Reset()
	if lp.Value != nil || lp.Deps != nil {
		t.Fatalf("LoPutReq.Reset kept retainable fields: %+v", lp)
	}

	lr := &LoRepUpdate{Deps: []LoDep{{Key: "d"}}, OldReaders: make([]ReaderEntry, 3, 8)}
	lr.Reset()
	if lr.Deps != nil { // COPS stores the Deps slice: must be dropped
		t.Fatalf("LoRepUpdate.Reset kept Deps")
	}
	if len(lr.OldReaders) != 0 || cap(lr.OldReaders) != 8 {
		t.Fatalf("LoRepUpdate.Reset lost OldReaders capacity")
	}

	dc := &DepCheckReq{Deps: []LoDep{{Key: "a", TS: 1}, {Key: "b", TS: 2}, {Key: "c", TS: 3}}}
	kept := dc.Deps
	dc.Reset()
	if len(dc.Deps) != 0 || cap(dc.Deps) != 3 || kept[0].Key != "" {
		t.Fatalf("DepCheckReq.Reset: %+v (cap %d), old entry %+v", dc, cap(dc.Deps), kept[0])
	}

	rot := &LoRotReq{RotID: 1, Keys: make([]string, 2, 4)}
	rot.Reset()
	if rot.RotID != 0 || len(rot.Keys) != 0 || cap(rot.Keys) != 4 {
		t.Fatalf("LoRotReq.Reset: %+v", rot)
	}
}

// TestEveryPooledTypeRoundTrips drives each pooled type through a
// decode → Recycle → decode cycle, checking the second decode is exact.
func TestEveryPooledTypeRoundTrips(t *testing.T) {
	msgs := []Message{
		&PutReq{Key: "k", Value: []byte("v"), Deps: vclock.Vec{1, 2}},
		&RotCoordReq{RotID: 3, Mode: 1, SeenGSS: vclock.Vec{5},
			Groups: []ReadGroup{{Part: 1, Keys: []string{"a", "b"}}}},
		&RotFwd{RotID: 1, Client: uint32ToAddr(t), SV: vclock.Vec{1}, Keys: []string{"x"}},
		&RotReadReq{SV: vclock.Vec{2}, Keys: []string{"y", "z"}},
		&RepBatch{SrcDC: 1, HighTS: 3, Ups: []Update{{Key: "u", TS: 4, DV: vclock.Vec{4}}}},
		&VVReport{Part: 2, VV: vclock.Vec{7, 8}},
		&GSSBcast{GSS: vclock.Vec{9}},
		&LoPutReq{Key: "k", Value: []byte("v"), Deps: []LoDep{{Key: "d", TS: 1}}},
		&LoRotReq{RotID: 5, Keys: []string{"p", "q"}},
		&OldReadersReq{Deps: []LoDep{{Key: "d", TS: 2}}},
		&LoRepUpdate{SrcDC: 2, Key: "k", Value: []byte("v"),
			TS: 4, Deps: []LoDep{{Key: "d", TS: 5}}, OldReaders: []ReaderEntry{{RotID: 6, T: 7}}},
		&DepCheckReq{Deps: []LoDep{{Key: "k", TS: 8}, {Key: "l", TS: 9, Src: 1}}},
		&Ping{Nonce: 42},
		&CopsRotReq{Keys: []string{"m", "n"}},
		&CopsVerReq{Key: "k", TS: 10},
	}
	for _, m := range msgs {
		first := decodeMsg(t, m)
		Recycle(first)
		second := decodeMsg(t, m)
		f1, f2 := GetFrame(), GetFrame()
		second.Encode(&f2.Buffer)
		m.Encode(&f1.Buffer)
		if !bytes.Equal(f1.B, f2.B) {
			t.Errorf("type %d: recycled re-decode differs from original", m.Type())
		}
		PutFrame(f1)
		PutFrame(f2)
		Recycle(second)
	}
}

func uint32ToAddr(t *testing.T) Addr {
	t.Helper()
	return ClientAddr(0, 7)
}
