// Package hlc provides the three clock families used by the protocols in
// this repository:
//
//   - Lamport: plain logical clocks (COPS, Eiger, CC-LO),
//   - HLC: hybrid logical-physical clocks (Contrarian, per Kulkarni et al.),
//   - Physical: loosely synchronized physical clocks that can NOT be moved
//     forward on demand (Cure, GentleRain) and therefore force blocking.
//
// Timestamps are uint64. For HLC and Physical clocks the value packs the
// physical time in microseconds in the upper 48 bits and a logical counter
// in the lower 16 bits, so timestamp comparison orders first by physical
// time. Lamport timestamps are unstructured counters; only their relative
// order matters.
//
// All clocks are safe for concurrent use and lock-free.
package hlc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// LogicalBits is the width of the logical counter in packed HLC/physical
// timestamps.
const LogicalBits = 16

// Physical readings count from a fixed instant, so readings compare across
// processes (NTP keeps the hosts close) and a restarted process reads on
// from where its previous incarnation stopped. The restart case is a
// correctness condition: a replication receiver drops a batch its version
// vector already covers, so a clock that restarted at zero would stamp new
// writes at or below the heartbeats its predecessor shipped, and they would
// never replicate. The wall clock is read once, at process start (base);
// from then on readings advance by the monotonic clock, so a wall-clock
// step inside a running process never moves them backwards.
var (
	started = time.Now()
	base    = started.Sub(time.Date(2025, time.January, 1, 0, 0, 0, 0, time.UTC))
)

// maxMicros is the first reading Pack cannot hold: the 48-bit microsecond
// field counted from 2025-01-01 runs out in late 2033.
const maxMicros = 1 << (64 - LogicalBits)

// Source yields the current physical time in microseconds. Distinct nodes
// get distinct Sources so clock skew can be injected.
type Source func() uint64

// WallSource returns a Source reading the process's anchored monotonic
// clock offset by skew. Negative skews model nodes running behind. It
// panics once a reading no longer fits Pack's 48-bit field, rather than
// wrapping to timestamps that would order below every earlier one.
func WallSource(skew time.Duration) Source {
	return func() uint64 {
		d := base + time.Since(started) + skew
		if d < 0 {
			return 0
		}
		us := uint64(d / time.Microsecond)
		if us >= maxMicros {
			panic("hlc: physical reading overflows the 48-bit microsecond field")
		}
		return us
	}
}

// ManualSource is a settable Source for tests.
type ManualSource struct{ v atomic.Uint64 }

// Set moves the manual clock to micros.
func (m *ManualSource) Set(micros uint64) { m.v.Store(micros) }

// Add advances the manual clock by micros.
func (m *ManualSource) Add(micros uint64) { m.v.Add(micros) }

// Now returns the current manual reading.
func (m *ManualSource) Now() uint64 { return m.v.Load() }

// Pack combines a physical microsecond reading and a logical counter into a
// timestamp.
func Pack(micros uint64, logical uint16) uint64 {
	return micros<<LogicalBits | uint64(logical)
}

// Micros extracts the physical microsecond component of a packed timestamp.
func Micros(ts uint64) uint64 { return ts >> LogicalBits }

// Clock generates event timestamps.
type Clock interface {
	// Now returns the current reading without creating an event.
	Now() uint64
	// Tick returns a timestamp for a new local event, strictly greater
	// than every timestamp previously returned by this clock.
	Tick() uint64
	// Update incorporates a remote timestamp and returns a new local
	// timestamp strictly greater than both the remote timestamp and all
	// previously returned ones. Physical clocks cannot jump: their Update
	// sleeps until the clock passes remote (this is Cure's blocking).
	Update(remote uint64) uint64
	// CanJump reports whether the clock can be moved forward instantly to
	// satisfy an incoming snapshot timestamp (true for Lamport and HLC).
	// Servers use this to decide whether an incoming ROT must block.
	CanJump() bool
}

// Lamport is a classic logical clock.
type Lamport struct{ last atomic.Uint64 }

// NewLamport returns a Lamport clock starting at start.
func NewLamport(start uint64) *Lamport {
	l := &Lamport{}
	l.last.Store(start)
	return l
}

// Now returns the current counter value.
func (l *Lamport) Now() uint64 { return l.last.Load() }

// Tick increments and returns the counter.
func (l *Lamport) Tick() uint64 { return l.last.Add(1) }

// Update advances the counter beyond remote and returns the new value.
func (l *Lamport) Update(remote uint64) uint64 {
	for {
		old := l.last.Load()
		next := max(old, remote) + 1
		if l.last.CompareAndSwap(old, next) {
			return next
		}
	}
}

// CanJump reports true: logical clocks can always be moved forward.
func (l *Lamport) CanJump() bool { return true }

// HLC is a hybrid logical-physical clock. The packed representation makes
// the classic HLC update rules collapse to max() on the packed value: the
// logical component overflows into physical time only after 2^16 events in
// the same microsecond, which is harmless drift (see Kulkarni et al.).
type HLC struct {
	src  Source
	last atomic.Uint64
}

// NewHLC returns an HLC drawing physical readings from src.
func NewHLC(src Source) *HLC { return &HLC{src: src} }

// Now returns the current reading without creating an event. The result is
// monotone with past Tick/Update results and advances with physical time
// even when the node is idle (this is what keeps the GSS fresh).
func (h *HLC) Now() uint64 {
	return max(h.last.Load(), Pack(h.src(), 0))
}

// Tick returns a timestamp for a new local event.
func (h *HLC) Tick() uint64 { return h.update(0) }

// Update incorporates a remote timestamp.
func (h *HLC) Update(remote uint64) uint64 { return h.update(remote) }

func (h *HLC) update(remote uint64) uint64 {
	for {
		old := h.last.Load()
		next := max(old+1, remote+1, Pack(h.src(), 0))
		if h.last.CompareAndSwap(old, next) {
			return next
		}
	}
}

// CanJump reports true: the logical half of an HLC absorbs jumps.
func (h *HLC) CanJump() bool { return true }

// Physical is a loosely synchronized physical clock. Tick never returns a
// value behind the physical reading, and Update must wait for real time to
// pass rather than jumping (Section 3 of the paper: "physical clocks...
// can only move forward with the passage of time").
type Physical struct {
	src  Source
	last atomic.Uint64
}

// NewPhysical returns a physical clock drawing from src.
func NewPhysical(src Source) *Physical { return &Physical{src: src} }

// Now returns the current reading.
func (p *Physical) Now() uint64 {
	return max(p.last.Load(), Pack(p.src(), 0))
}

// Tick returns a timestamp for a new local event. The 16-bit logical suffix
// disambiguates events within one microsecond but never runs ahead of the
// physical reading by more than that suffix.
func (p *Physical) Tick() uint64 {
	for {
		old := p.last.Load()
		next := max(old+1, Pack(p.src(), 0))
		if p.last.CompareAndSwap(old, next) {
			return next
		}
	}
}

// Update waits until the physical reading passes remote, then ticks. The
// wait is the blocking behaviour Cure exhibits under clock skew.
func (p *Physical) Update(remote uint64) uint64 {
	p.Sleep(remote)
	for {
		old := p.last.Load()
		next := max(old+1, remote+1, Pack(p.src(), 0))
		if p.last.CompareAndSwap(old, next) {
			return next
		}
	}
}

// Sleep blocks until the physical reading reaches at least ts. Waits below
// the host timer slack (~2 ms on coarse kernels) spin-yield instead of
// sleeping, so Cure's skew-induced blocking is measured at its true
// magnitude rather than at the kernel tick.
func (p *Physical) Sleep(ts uint64) {
	for {
		cur := Pack(p.src(), 1<<LogicalBits-1)
		if cur >= ts {
			return
		}
		wait := time.Duration(Micros(ts)-Micros(cur)) * time.Microsecond
		if wait > 4*time.Millisecond {
			time.Sleep(wait - 2*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// CanJump reports false: incoming snapshots ahead of this clock block.
func (p *Physical) CanJump() bool { return false }
