package core

import (
	"repro/internal/family"
	"repro/internal/hlc"
	"repro/internal/metrics"
)

// Observability surface of a core partition server: per-op latency
// histograms, the shared slow-op trace ring, and replication-lag gauges.
//
// The histograms and the last-receipt timestamps are recorded inline by the
// handlers (lock-free atomics, nil-safe ring); everything else is computed
// at scrape time from state the server already maintains, so a partition
// that is never scraped pays only the histogram Record per op.

// RegisterMetrics exposes the server's per-op histograms, store occupancy,
// and replication-lag gauges under r. Labels should identify the partition
// (dc, partition, family); every partition in a process shares r.
func (s *Server) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	s.ops.Register(r, "kv_server_op_seconds",
		"End-to-end server handler latency by operation.", labels...)
	s.store.Register(r, labels...)
	s.repAges.Register(r, s.cfg.DC, labels...)
	if s.cfg.Clock != ClockLogical {
		for dc := 0; dc < s.cfg.NumDCs; dc++ {
			if dc == s.cfg.DC {
				continue
			}
			r.GaugeFunc("kv_replication_lag_seconds",
				"Clock-derived replication cursor lag behind the peer DC: local clock minus the newest timestamp received from it.",
				func() float64 { return s.replicationLag(dc) }, family.WithPeer(labels, dc)...)
		}
		r.GaugeFunc("kv_visibility_lag_seconds",
			"Visibility lag: local clock minus the Global Stable Snapshot's oldest entry — how stale a fresh ROT snapshot is.",
			func() float64 { return s.visibilityLag() }, labels...)
	}
}

// replicationLag is the clock-derived cursor lag behind dc in seconds:
// the microsecond component of the local clock minus that of vv[dc].
// Timestamps pack wall micros in their upper bits (hlc.Pack), so the
// difference is real time as long as the DCs' clocks are synchronized —
// the same NTP assumption Cure already makes. Meaningless under Lamport
// clocks; RegisterMetrics gates on the clock mode.
func (s *Server) replicationLag(dc int) float64 {
	s.mu.RLock()
	var ts uint64
	if dc >= 0 && dc < len(s.vv) {
		ts = s.vv[dc]
	}
	s.mu.RUnlock()
	return microsLagSeconds(s.clock.Now(), ts)
}

// visibilityLag is the local clock minus the GSS's oldest entry, in
// seconds: an upper bound on how far behind real time a freshly-taken ROT
// snapshot is.
func (s *Server) visibilityLag() float64 {
	g := s.gssSnapshot()
	if len(g) == 0 {
		return 0
	}
	oldest := g[0]
	for _, e := range g[1:] {
		if e < oldest {
			oldest = e
		}
	}
	return microsLagSeconds(s.clock.Now(), oldest)
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
