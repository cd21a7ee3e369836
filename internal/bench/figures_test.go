package bench

import (
	"testing"

	"repro/internal/wal"
)

func walView(appends, fsyncs uint64) wal.StatsView {
	return wal.StatsView{Appends: appends, Fsyncs: fsyncs}
}

// TestWALDeltaAmortization checks the bench-facing group-commit stat.
func TestWALDeltaAmortization(t *testing.T) {
	p := walDelta(
		walView(100, 90),
		walView(1300, 390),
		"sync",
	)
	if p.Appends != 1200 || p.Fsyncs != 300 {
		t.Fatalf("delta: %+v", p)
	}
	if p.AppendsPerFsync != 4.0 {
		t.Fatalf("AppendsPerFsync = %v, want 4.0", p.AppendsPerFsync)
	}
	if z := walDelta(walView(5, 5), walView(5, 5), "async"); z.AppendsPerFsync != 0 {
		t.Fatalf("idle window AppendsPerFsync = %v, want 0", z.AppendsPerFsync)
	}
}
