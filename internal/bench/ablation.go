package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// AblationRow is one clock configuration's remote-visibility measurement.
type AblationRow struct {
	Clock      string
	Visibility metrics.Summary // put in DC0 → visible in DC1
}

// AblationClockFreshness quantifies Section 4's "Freshness of the
// snapshots" design discussion: Contrarian runs on HLCs because with plain
// logical clocks the Global Stable Snapshot only advances when every
// partition keeps writing — a single laggard pins it and remote visibility
// suffers. The ablation runs the same engine with both clock modes and
// measures how long a DC0 write takes to become visible to a DC1 reader,
// while a background writer keeps all partitions mildly active (without
// background traffic, logical clocks would never converge at all; see
// cluster.TestLogicalClockLaggardPinsGSS).
func AblationClockFreshness(o Opts, samples int) ([]AblationRow, error) {
	fmt.Fprintf(o.Out, "\n=== Ablation: GSS freshness, HLC vs logical clocks (2 DCs) ===\n")
	fmt.Fprintf(o.Out, "%-10s %12s %12s %12s\n", "clock", "vis-avg", "vis-p99", "vis-max")
	var rows []AblationRow
	for _, mode := range []struct {
		name  string
		clock core.ClockMode
	}{{"HLC", core.ClockHLC}, {"Logical", core.ClockLogical}} {
		sum, err := measureVisibility(o, mode.clock, samples)
		if err != nil {
			return rows, fmt.Errorf("ablation %s: %w", mode.name, err)
		}
		rows = append(rows, AblationRow{Clock: mode.name, Visibility: sum})
		fmt.Fprintf(o.Out, "%-10s %12v %12v %12v\n", mode.name,
			sum.Mean.Round(time.Millisecond), sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond))
	}
	return rows, nil
}

func measureVisibility(o Opts, clock core.ClockMode, samples int) (metrics.Summary, error) {
	lat := transport.DefaultLatency()
	c, err := cluster.Start(cluster.Config{
		Protocol:      cluster.Contrarian,
		DCs:           2,
		Partitions:    o.Partitions,
		Latency:       &lat,
		MaxSkew:       o.MaxSkew,
		ClockOverride: &clock,
	})
	if err != nil {
		return metrics.Summary{}, err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(samples)*5*time.Second+30*time.Second)
	defer cancel()
	writer, err := c.NewClient(0, 0)
	if err != nil {
		return metrics.Summary{}, err
	}
	defer writer.Close()
	reader, err := c.NewClient(1, 0)
	if err != nil {
		return metrics.Summary{}, err
	}
	defer reader.Close()

	// Background writer touching every partition keeps logical clocks
	// moving; with HLCs physical time does this for free.
	bgCtx, bgCancel := context.WithCancel(ctx)
	defer bgCancel()
	bg, err := c.NewClient(0, 0)
	if err != nil {
		return metrics.Summary{}, err
	}
	defer bg.Close()
	// A deliberately slow background writer (one partition every 10 ms)
	// models a mostly-idle system: logical clocks advance only on writes,
	// so the GSS lags by up to a full round over the partitions, while
	// HLCs stay fresh regardless.
	go func() {
		i := 0
		for bgCtx.Err() == nil {
			key := fmt.Sprintf("bg-%d", i%(o.Partitions*4))
			_, _ = bg.Put(bgCtx, key, []byte("tick"))
			i++
			time.Sleep(10 * time.Millisecond)
		}
	}()

	hist := metrics.NewHistogram()
	for i := 0; i < samples; i++ {
		key := fmt.Sprintf("vis-%d", i)
		want := []byte(fmt.Sprintf("v%d", i))
		if _, err := writer.Put(ctx, key, want); err != nil {
			return metrics.Summary{}, err
		}
		start := time.Now()
		for {
			got, err := reader.Get(ctx, key)
			if err != nil {
				return metrics.Summary{}, err
			}
			if string(got) == string(want) {
				hist.Record(time.Since(start))
				break
			}
			if time.Since(start) > 10*time.Second {
				return metrics.Summary{}, fmt.Errorf("sample %d never became visible", i)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return hist.Snapshot(), nil
}
