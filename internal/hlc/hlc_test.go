package hlc

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestWallSourceContinuesAcrossProcesses: a restarted server is a new
// process, and its physical clock must read on from where the old one
// stopped, not restart at zero below every timestamp the old process
// shipped. The test re-runs itself as a child process and compares the
// child's reading with one taken here first.
func TestWallSourceContinuesAcrossProcesses(t *testing.T) {
	if os.Getenv("HLC_PRINT_WALL") != "" {
		os.Stdout.WriteString(strconv.FormatUint(WallSource(0)(), 10) + "\n")
		return
	}
	time.Sleep(10 * time.Millisecond) // this process has run for a while
	before := WallSource(0)()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWallSourceContinuesAcrossProcesses$")
	cmd.Env = append(os.Environ(), "HLC_PRINT_WALL=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	child, err := strconv.ParseUint(strings.Fields(string(out))[0], 10, 64)
	if err != nil {
		t.Fatalf("child printed %q: %v", out, err)
	}
	if child < before {
		t.Fatalf("a later process reads %d µs, behind this one's earlier %d µs", child, before)
	}
}

func TestPackMicros(t *testing.T) {
	ts := Pack(123, 7)
	if Micros(ts) != 123 {
		t.Fatalf("Micros = %d, want 123", Micros(ts))
	}
	if ts&0xFFFF != 7 {
		t.Fatalf("logical = %d, want 7", ts&0xFFFF)
	}
}

func TestLamportTickStrictlyIncreasing(t *testing.T) {
	l := NewLamport(0)
	prev := l.Tick()
	for i := 0; i < 1000; i++ {
		cur := l.Tick()
		if cur <= prev {
			t.Fatalf("Tick not increasing: %d then %d", prev, cur)
		}
		prev = cur
	}
}

func TestLamportUpdate(t *testing.T) {
	l := NewLamport(5)
	got := l.Update(100)
	if got != 101 {
		t.Fatalf("Update(100) = %d, want 101", got)
	}
	if got := l.Update(3); got != 102 {
		t.Fatalf("Update(3) = %d, want 102", got)
	}
	if !l.CanJump() {
		t.Fatal("Lamport must be able to jump")
	}
}

func TestLamportConcurrentUnique(t *testing.T) {
	l := NewLamport(0)
	const workers, per = 8, 500
	ts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts[w] = make([]uint64, per)
			for i := 0; i < per; i++ {
				ts[w][i] = l.Tick()
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, s := range ts {
		for _, v := range s {
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
}

func TestHLCMonotonicAndAboveRemote(t *testing.T) {
	var src ManualSource
	h := NewHLC(src.Now)
	a := h.Tick()
	b := h.Update(a + 500)
	if b <= a+500 {
		t.Fatalf("Update must exceed remote: %d <= %d", b, a+500)
	}
	c := h.Tick()
	if c <= b {
		t.Fatalf("Tick after Update not increasing: %d <= %d", c, b)
	}
	if !h.CanJump() {
		t.Fatal("HLC must be able to jump")
	}
}

func TestHLCTracksPhysical(t *testing.T) {
	var src ManualSource
	h := NewHLC(src.Now)
	src.Set(1000)
	ts := h.Tick()
	if Micros(ts) != 1000 {
		t.Fatalf("HLC should adopt physical reading: micros = %d, want 1000", Micros(ts))
	}
	// Idle Now() advances with physical time even without events.
	src.Set(2000)
	if Micros(h.Now()) != 2000 {
		t.Fatalf("idle Now should track physical: %d", Micros(h.Now()))
	}
}

func TestHLCLogicalWithinSameMicro(t *testing.T) {
	var src ManualSource
	src.Set(50)
	h := NewHLC(src.Now)
	a := h.Tick()
	b := h.Tick()
	if Micros(a) != 50 || Micros(b) != 50 {
		t.Fatalf("physical part should stay at 50: %d %d", Micros(a), Micros(b))
	}
	if b != a+1 {
		t.Fatalf("logical counter should increment: %d %d", a, b)
	}
}

func TestQuickHLCUpdateDominates(t *testing.T) {
	var src ManualSource
	h := NewHLC(src.Now)
	f := func(remote uint64, phys uint32) bool {
		src.Set(uint64(phys))
		got := h.Update(remote % (1 << 40))
		return got > remote%(1<<40) && Micros(got) >= uint64(phys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalCannotJump(t *testing.T) {
	var src ManualSource
	p := NewPhysical(src.Now)
	if p.CanJump() {
		t.Fatal("physical clocks must not jump")
	}
	src.Set(100)
	ts := p.Tick()
	if Micros(ts) != 100 {
		t.Fatalf("Tick micros = %d, want 100", Micros(ts))
	}
}

// TestWallSourcePanicsPastPackRange: a reading Pack cannot hold fails loudly
// instead of wrapping to a timestamp below every earlier one.
func TestWallSourcePanicsPastPackRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a reading past the 48-bit field did not panic")
		}
	}()
	WallSource(maxMicros * time.Microsecond)()
}

func TestPhysicalUpdateBlocks(t *testing.T) {
	// A physical clock asked to pass a timestamp ahead of its reading must
	// wait for (real or injected) time. Use a wall source with a negative
	// skew and confirm Update takes roughly the skew to catch up.
	p := NewPhysical(WallSource(0))
	target := Pack(WallSource(0)()+3000, 0) // 3ms ahead
	start := time.Now()
	got := p.Update(target)
	elapsed := time.Since(start)
	if got <= target {
		t.Fatalf("Update result %d not past target %d", got, target)
	}
	if elapsed < 2*time.Millisecond {
		t.Fatalf("Update should have blocked ~3ms, took %v", elapsed)
	}
}

func TestWallSourceSkew(t *testing.T) {
	ahead := WallSource(10 * time.Millisecond)
	behind := WallSource(-10 * time.Millisecond)
	// The negative-skew source clamps at zero until 10 ms of process
	// lifetime have elapsed; wait out the clamp.
	for behind() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Scheduling can separate the two readings under parallel test load;
	// take several samples and keep the tightest delta.
	best := uint64(1 << 62)
	for i := 0; i < 20; i++ {
		b := behind() // read "behind" first: any delay only shrinks the delta
		a := ahead()
		if a <= b {
			t.Fatalf("skewed sources out of order: ahead=%d behind=%d", a, b)
		}
		if d := a - b; d < best {
			best = d
		}
	}
	// The true delta is 20 ms; allow generous scheduling noise.
	if best < 15000 || best > 25000 {
		t.Fatalf("tightest skew delta = %dµs, want ≈20000µs", best)
	}
}

func TestHLCConcurrentMonotone(t *testing.T) {
	h := NewHLC(WallSource(0))
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := h.Tick()
			for i := 0; i < 2000; i++ {
				cur := h.Tick()
				if cur <= prev {
					errs <- cur
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
	close(errs)
	if v, ok := <-errs; ok {
		t.Fatalf("non-monotone concurrent tick: %d", v)
	}
}

func BenchmarkLamportTick(b *testing.B) {
	l := NewLamport(0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Tick()
		}
	})
}

func BenchmarkHLCTick(b *testing.B) {
	h := NewHLC(WallSource(0))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Tick()
		}
	})
}

func BenchmarkHLCUpdate(b *testing.B) {
	h := NewHLC(WallSource(0))
	for i := 0; i < b.N; i++ {
		h.Update(uint64(i) << LogicalBits)
	}
}
