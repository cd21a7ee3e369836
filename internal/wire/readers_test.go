package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestReadersGoldenBytes pins the compact reader-entry encoding: count, then
// per entry the client through the address codec (role and DC, index) and
// uvarint sequence and T.
func TestReadersGoldenBytes(t *testing.T) {
	rs := []ReaderEntry{
		{RotID: uint64(ClientAddr(0, 3))<<32 | 1, T: 5},     // client 0x40000003: 2 bytes
		{RotID: uint64(ClientAddr(1, 2))<<32 | 300, T: 1e6}, // seq 300: 2 bytes, T 1e6: 3 bytes
		{RotID: 1<<64 - 1, T: 1<<64 - 1},                    // widest: 3 + 3 + 5 + 10
	}
	want := []byte{
		3,
		0x01, 0x03, 0x01, 0x05,
		0x05, 0x02, 0xac, 0x02, 0xc0, 0x84, 0x3d,
		0xff, 0xff, 0x03, 0xff, 0xff, 0x03, 0xff, 0xff, 0xff, 0xff, 0x0f,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
	var b Buffer
	encodeReaders(&b, rs)
	if !bytes.Equal(b.B, want) {
		t.Fatalf("encoded % x\n   want % x", b.B, want)
	}
	if got := ReadersSize(rs); got != len(want) {
		t.Fatalf("ReadersSize = %d, encoded %d bytes", got, len(want))
	}
	r := NewReader(want)
	if got := decodeReaders(r); r.Err() != nil || r.Remaining() != 0 || !slices.Equal(got, rs) {
		t.Fatalf("decoded %+v (err %v, %d bytes left), want %+v", got, r.Err(), r.Remaining(), rs)
	}
}

// TestReadersRoundTrip: random ids and times of every width survive, and
// ReadersSize always agrees with the encoder.
func TestReadersRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rs := make([]ReaderEntry, r.Intn(40))
		for i := range rs {
			rs[i] = ReaderEntry{RotID: r.Uint64() >> r.Intn(64), T: r.Uint64() >> r.Intn(64)}
		}
		var b Buffer
		encodeReaders(&b, rs)
		if ReadersSize(rs) != len(b.B) {
			t.Fatalf("ReadersSize = %d, encoded %d bytes", ReadersSize(rs), len(b.B))
		}
		rd := NewReader(b.B)
		got := decodeReaders(rd)
		if rd.Err() != nil || rd.Remaining() != 0 || !slices.Equal(got, rs) {
			t.Fatalf("trial %d: decoded %+v (err %v), want %+v", trial, got, rd.Err(), rs)
		}
	}
}

// TestReadersTruncatedOrOversized: every strict prefix of a valid encoding
// fails with ErrTruncated, and a client part or sequence that does not fit
// its field is rejected instead of silently folded into another.
func TestReadersTruncatedOrOversized(t *testing.T) {
	var b Buffer
	encodeReaders(&b, []ReaderEntry{{RotID: uint64(ClientAddr(0, 9))<<32 | 77, T: 123456}, {RotID: 1 << 40, T: 88}})
	for n := 0; n < len(b.B); n++ {
		r := NewReader(b.B[:n])
		decodeReaders(r)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTruncated", n, len(b.B), r.Err())
		}
	}
	for _, bad := range [][]byte{
		{1, 0x80, 0x80, 0x04, 1, 1, 1},             // client role and DC = 1<<16
		{1, 1, 0x80, 0x80, 0x04, 1, 1},             // client index = 1<<16
		{1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1}, // sequence = 1<<32
	} {
		r := NewReader(bad)
		if got := decodeReaders(r); !errors.Is(r.Err(), ErrTooLarge) || got != nil {
			t.Fatalf("% x decoded to %+v, err %v; want ErrTooLarge", bad, got, r.Err())
		}
	}
}
