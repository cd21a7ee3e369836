package cclo

import (
	"errors"
	"slices"
	"testing"
	"time"

	storeeng "repro/internal/store"
)

// TestHotKeyReadersBounded: a hot dependency key under a read-heavy,
// install-free workload must not grow its reader set without bound. The
// clock is synthetic, so the test is fully deterministic: 10k distinct
// clients read the key at 10 reads/ms against a 5 ms GC window. Every read
// is a client's first, so every read's insertion pass drops what expired:
// the set holds exactly the reads of the last window.
func TestHotKeyReadersBounded(t *testing.T) {
	s := newLoStore(1, 5*time.Millisecond, false)
	t0 := time.Now()
	s.install("hot", loVersion{value: []byte("v"), ts: 1, srcDC: 0}, nil, t0)
	for i := 0; i < 10000; i++ {
		now := t0.Add(time.Duration(i) * 100 * time.Microsecond)
		s.read("hot", uint64(i+1)<<32, uint64(i+1), now)
	}
	readers, _ := s.readerSizes("hot")
	// In-window entries: 5ms × 10/ms = 50, plus the one exactly at the edge.
	if readers > 51 {
		t.Fatalf("reader set grew to %d entries on a hot key (one window holds 51): insertion never expired", readers)
	}
}

// TestOneSlotPerClient: 10k ROTs of ONE client on a hot key occupy one
// slot — the paper's one-id-per-client rule applied at insertion — and the
// slot is the newest ROT's.
func TestOneSlotPerClient(t *testing.T) {
	s := newLoStore(1, time.Minute, false)
	t0 := time.Now()
	s.install("hot", loVersion{value: []byte("v"), ts: 1, srcDC: 0}, nil, t0)
	for i := 1; i <= 10000; i++ {
		s.read("hot", 7<<32|uint64(i), uint64(i), t0)
	}
	s.read("hot", 7<<32|9999, 20000, t0) // straggler leg of an abandoned ROT
	if readers, _ := s.readerSizes("hot"); readers != 1 {
		t.Fatalf("one client holds %d slots, want 1", readers)
	}
	s.install("hot", loVersion{value: []byte("w"), ts: 2, srcDC: 0}, nil, t0)
	out, scanned := s.collectOldReaders("hot", 2, t0, nil)
	if scanned != 1 || len(out) != 1 || out[0].rotID != 7<<32|10000 || out[0].t != 10000 {
		t.Fatalf("collected %+v (scanned %d), want the client's newest ROT only", out, scanned)
	}
}

// TestOldReadersSweptOnInstall: installs move current readers into
// oldReaders; with nothing ever depending on the key no readers check runs
// to expire them. 60 rounds of (10 fresh clients, one install) against a
// 5 ms window must retain only the rounds still inside the window.
func TestOldReadersSweptOnInstall(t *testing.T) {
	s := newLoStore(1, 5*time.Millisecond, false)
	t0 := time.Now()
	s.install("churn", loVersion{value: []byte("v"), ts: 1, srcDC: 0}, nil, t0)
	id := uint64(1)
	for round := 0; round < 60; round++ {
		now := t0.Add(time.Duration(round) * 2 * time.Millisecond)
		for i := 0; i < 10; i++ {
			s.read("churn", id<<32, id, now)
			id++
		}
		s.install("churn", loVersion{value: []byte("v"), ts: uint64(round + 2), srcDC: 0}, nil, now)
	}
	_, old := s.readerSizes("churn")
	// Rounds are 2 ms apart: the last install keeps its own round and the two
	// before it (0, 2 and 4 ms old); the round 6 ms back is past the window.
	if old != 30 {
		t.Fatalf("oldReaders holds %d entries with no readers checks, want the 30 of the last three rounds", old)
	}
}

// TestProbeHeavyKeySweptOnCollect: a dependency key whose latest version
// is current is never collected from, so nothing but reads would expire its
// reader set. The collect path must bound it too.
func TestProbeHeavyKeySweptOnCollect(t *testing.T) {
	s := newLoStore(1, 5*time.Millisecond, false)
	t0 := time.Now()
	s.install("dep", loVersion{value: []byte("v"), ts: 100, srcDC: 0}, nil, t0)
	for i := 0; i < 128; i++ {
		s.read("dep", uint64(i+1)<<32, uint64(i+1), t0)
	}
	// Age them out and let a readers check (latest 100 ≥ depTS 50: not
	// collected) pass over the key.
	collected, _ := s.collectOldReaders("dep", 50, t0.Add(50*time.Millisecond), nil)
	if len(collected) != 0 {
		t.Fatalf("collected %d readers for an already-satisfied dependency", len(collected))
	}
	if readers, _ := s.readerSizes("dep"); readers != 0 {
		t.Fatalf("reader set holds %d expired entries after a collect pass", readers)
	}
}

// TestAllInvisibleAtCapacityIsNotFound: what a ROT hidden from every
// retained version gets must key on whether versions were actually
// dropped, not on chain length. Live marks on every version keep the whole
// chain, so it grows to the ceiling untrimmed, and the probing ROT gets
// "not found" (it predates the first version). One more install makes the
// ceiling drop the oldest: now the version that ROT needed may be gone, so
// the read is refused — never answered with the oldest retained version.
func TestAllInvisibleAtCapacityIsNotFound(t *testing.T) {
	const rot = uint64(7)
	s := newLoStore(1, time.Minute, false)
	t0 := time.Now()
	marked := slotSet{{rotID: rot, t: 1}}
	for i := 1; i <= storeeng.Ceiling; i++ { // exactly at the ceiling, never trimmed
		s.install("k", loVersion{value: []byte{byte(i)}, ts: uint64(i), srcDC: 0}, slices.Clone(marked), t0)
	}
	if kv, err := s.serve("k", rot, 99, t0); err != nil || kv.TS != 0 {
		t.Fatalf("at-ceiling untrimmed chain answered (%+v, %v) to a ROT hidden from all of it, want not found", kv, err)
	}
	if s.eng.Has("k", 0, 0) {
		t.Fatal("hasVersion claimed an uninstalled pre-chain version on an untrimmed chain")
	}
	s.install("k", loVersion{value: []byte{0}, ts: storeeng.Ceiling + 1, srcDC: 0}, slices.Clone(marked), t0)
	if c := s.eng.View("k"); c.Len() != storeeng.Ceiling || !c.Trimmed {
		t.Fatalf("chain len %d trimmed %v, want the ceiling to have dropped one", c.Len(), c.Trimmed)
	}
	if kv, err := s.serve("k", rot, 100, t0); !errors.Is(err, errTrimmed) {
		t.Fatalf("ROT hidden from every version the ceiling left got (%+v, %v), want errTrimmed", kv, err)
	}
	if s.eng.Refusals() != 1 {
		t.Fatalf("refusals = %d, want 1", s.eng.Refusals())
	}
	if !s.eng.Has("k", 1, 0) {
		t.Fatal("hasVersion denied a genuinely trimmed-away version")
	}
}

// TestChainKeepsOnlyWhatLiveMarksNeed: versions stay while a version at or
// above them hides from some ROT, and one GC window later a single write
// leaves the key its newest version alone. A key nobody writes again is
// never trimmed again, so a read is what releases its expired marks.
func TestChainKeepsOnlyWhatLiveMarksNeed(t *testing.T) {
	const window = 10 * time.Millisecond
	s := newLoStore(1, window, false)
	t0 := time.Now()
	s.install("k", loVersion{value: []byte("v1"), ts: 1}, nil, t0)
	s.install("k", loVersion{value: []byte("v2"), ts: 2}, slotSet{{rotID: 1 << 32, t: 1}}, t0)
	s.install("k", loVersion{value: []byte("v3"), ts: 3}, slotSet{{rotID: 2 << 32, t: 1}}, t0)
	if got := retained(s, "k"); len(got) != 3 {
		t.Fatalf("retained %v, want v1 (the rewind target below the oldest mark) through v3", got)
	}
	s.install("k", loVersion{value: []byte("v4"), ts: 4}, nil, t0.Add(window+time.Millisecond))
	c := s.eng.View("k")
	if c.Len() != 1 || c.Versions[0].TS != 4 || c.Versions[0].Extra.invisible != nil {
		t.Fatalf("one window later a write left %v, want v4 alone, unmarked", retained(s, "k"))
	}

	s.install("cold", loVersion{value: []byte("c1"), ts: 1}, nil, t0)
	s.install("cold", loVersion{value: []byte("c2"), ts: 2}, slotSet{{rotID: 1 << 32, t: 1}}, t0)
	s.read("cold", 3<<32, 5, t0.Add(window+time.Millisecond))
	inv := s.eng.Latest("cold").Extra.invisible
	if inv == nil || *inv != nil {
		t.Fatalf("a read past the window left the newest version's marks %v, want them released", inv)
	}
	if got := s.eng.Versions(); got != 1+2 {
		t.Fatalf("the store retains %d versions, want k's one and cold's two", got)
	}
}

// TestExpiredMarkUnhidesNewVersion pins the GC-window contract the
// ReaderGCWindow knob exposes: an invisibility mark past the window no
// longer hides the version from the marked ROT (and is dropped).
func TestExpiredMarkUnhidesNewVersion(t *testing.T) {
	const rot = uint64(42)
	s := newLoStore(1, 10*time.Millisecond, false)
	t0 := time.Now()
	s.install("k", loVersion{value: []byte("v1"), ts: 1, srcDC: 0}, nil, t0)
	s.install("k", loVersion{value: []byte("v2"), ts: 2, srcDC: 0},
		slotSet{{rotID: rot, t: 1}}, t0)

	if val, _, _, ok := s.read("k", rot, 10, t0.Add(time.Millisecond)); !ok || string(val) != "v1" {
		t.Fatalf("in-window read got %q, want the rewind to v1", val)
	}
	if val, _, _, ok := s.read("k", rot, 11, t0.Add(20*time.Millisecond)); !ok || string(val) != "v2" {
		t.Fatalf("post-window read got %q, want v2: an expired reader entry must not keep hiding new versions", val)
	}
}
