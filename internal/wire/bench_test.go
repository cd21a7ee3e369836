package wire

import (
	"testing"

	"repro/internal/vclock"
)

// Micro-benchmarks for the codec: every protocol message crosses it twice
// (encode at the sender, decode at the receiver), so its cost is part of
// every latency the macro-benchmarks report.

func benchEnvelope(value []byte) []byte {
	return EncodeEnvelope(nil, &Envelope{
		Src:   ClientAddr(0, 1),
		Dst:   ServerAddr(0, 2),
		ReqID: 42,
		Msg:   &PutReq{Key: "key00001234", Value: value, Deps: vclock.Vec{1, 2}},
	})
}

func BenchmarkEncodePutReq8(b *testing.B) {
	val := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := benchEnvelope(val)
		_ = buf
	}
}

func BenchmarkEncodePutReq2048(b *testing.B) {
	val := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := benchEnvelope(val)
		_ = buf
	}
}

// benchFramePooled is the transport send path after this PR: pooled buffer,
// length prefix reserved in the same buffer, zero allocations at steady
// state (vs 7 allocs/op for the seed's EncodeEnvelope(nil, ...)).
func benchFramePooled(b *testing.B, valSize int) {
	b.Helper()
	val := make([]byte, valSize)
	env := &Envelope{
		Src:   ClientAddr(0, 1),
		Dst:   ServerAddr(0, 2),
		ReqID: 42,
		Msg:   &PutReq{Key: "key00001234", Value: val, Deps: vclock.Vec{1, 2}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := GetFrame()
		f.AppendEnvelope(env)
		PutFrame(f)
	}
}

func BenchmarkEncodeFramePooled8(b *testing.B)    { benchFramePooled(b, 8) }
func BenchmarkEncodeFramePooled2048(b *testing.B) { benchFramePooled(b, 2048) }

func BenchmarkDecodePutReq8(b *testing.B) {
	buf := benchEnvelope(make([]byte, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePutReq2048(b *testing.B) {
	buf := benchEnvelope(make([]byte, 2048))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRepBatchEnvelope() []byte {
	ups := make([]Update, 64)
	for i := range ups {
		ups[i] = Update{
			Key: "key00001234", Value: make([]byte, 8),
			TS: uint64(i), DV: vclock.Vec{uint64(i), 2},
		}
	}
	return EncodeEnvelope(nil, &Envelope{Src: 1, Dst: 2, ReqID: 9, Msg: &RepBatch{
		SrcDC: 1, HighTS: 99, Ups: ups,
	}})
}

func BenchmarkDecodeRepBatch64(b *testing.B) {
	buf := benchRepBatchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOldReadersResp(b *testing.B) {
	// A readers-check response carrying 256 old readers — the CC-LO write
	// path's signature payload (§5.4: ~855 ids per check at peak).
	readers := make([]ReaderEntry, 256)
	for i := range readers {
		readers[i] = ReaderEntry{RotID: uint64(i)<<32 | uint64(i), T: uint64(i)}
	}
	msg := &OldReadersResp{Readers: readers, Cumulative: 855}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := EncodeEnvelope(nil, &Envelope{Src: 1, Dst: 2, ReqID: 1, Resp: true, Msg: msg})
		_ = buf
	}
}

func BenchmarkDecodeRotSnap(b *testing.B) {
	kvs := make([]KV, 4)
	for i := range kvs {
		kvs[i] = KV{Key: "key00001234", Value: make([]byte, 8), TS: uint64(i)}
	}
	buf := EncodeEnvelope(nil, &Envelope{Src: 1, Dst: 2, Msg: &RotSnap{
		RotID: 9, SV: vclock.Vec{1, 2}, Vals: kvs,
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}
