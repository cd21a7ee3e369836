package core

import (
	"repro/internal/family"
	"repro/internal/hlc"
	"repro/internal/metrics"
)

// registerLags exposes the clock-derived lag gauges a core partition adds
// to the skeleton's series (family.Partition.RegisterMetrics): per peer DC,
// the local clock minus the newest timestamp received from it, and the
// local clock minus the GSS's oldest entry — how stale a fresh ROT snapshot
// is. Timestamps pack wall micros in their upper bits (hlc.Pack), so the
// differences are real time as long as the DCs' clocks are synchronized
// (the NTP assumption Cure already makes); under Lamport clocks they mean
// nothing, and NewServer does not expose them. Both are computed at scrape
// time, so a partition that is never scraped pays nothing for them.
func (s *Server) registerLags(r *metrics.Registry, labels ...metrics.Label) {
	for dc := 0; dc < s.cfg.NumDCs; dc++ {
		if dc == s.cfg.DC {
			continue
		}
		r.GaugeFunc("kv_replication_lag_seconds",
			"Clock-derived replication cursor lag behind the peer DC: local clock minus the newest timestamp received from it.",
			func() float64 {
				s.mu.RLock()
				ts := s.vv[dc]
				s.mu.RUnlock()
				return microsLagSeconds(s.clock.Now(), ts)
			}, family.WithPeer(labels, dc)...)
	}
	r.GaugeFunc("kv_visibility_lag_seconds",
		"Visibility lag: local clock minus the Global Stable Snapshot's oldest entry — how stale a fresh ROT snapshot is.",
		func() float64 { return microsLagSeconds(s.clock.Now(), s.gssSnapshot().Min()) }, labels...)
}

// microsLagSeconds converts a timestamp difference to seconds via the
// packed microsecond components, clamping at zero.
func microsLagSeconds(now, then uint64) float64 {
	n, t := hlc.Micros(now), hlc.Micros(then)
	if t >= n {
		return 0
	}
	return float64(n-t) / 1e6
}
