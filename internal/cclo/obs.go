package cclo

import (
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Observability surface of a CC-LO partition server. CC-LO runs on Lamport
// clocks, whose timestamps carry no wall-time component, so its
// replication-lag gauge is the wall-clock age of the last replicated update
// received from each peer DC rather than a clock difference.

// RegisterMetrics exposes the server's per-op histograms, store occupancy,
// readers-check overhead counters, restart epoch, and replication-receipt
// ages under r. Labels should identify the partition (dc, partition,
// family).
func (s *Server) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	s.ops.Register(r, "kv_server_op_seconds",
		"End-to-end server handler latency by operation.", labels...)
	s.store.eng.Register(r, labels...)
	r.CounterFunc("kv_store_approx_reads_total",
		"Snapshot reads served with the oldest retained version because the exact one was trimmed.",
		func() float64 { return float64(s.store.approxReads.Load()) }, labels...)
	r.CounterFunc("kv_cclo_readers_checks_total", "Readers checks performed.",
		func() float64 { return float64(s.stats.Checks.Load()) }, labels...)
	r.CounterFunc("kv_cclo_keys_checked_total", "Dependencies examined by readers checks.",
		func() float64 { return float64(s.stats.KeysChecked.Load()) }, labels...)
	r.CounterFunc("kv_cclo_partitions_asked_total", "Remote partitions interrogated by readers checks.",
		func() float64 { return float64(s.stats.PartitionsAsked.Load()) }, labels...)
	r.CounterFunc("kv_cclo_rot_ids_total", "ROT ids scanned by readers checks, before dedup.",
		func() float64 { return float64(s.stats.IDsCumulative.Load()) }, labels...)
	r.CounterFunc("kv_cclo_rot_ids_distinct_total", "Distinct ROT ids after readers-check merge.",
		func() float64 { return float64(s.stats.IDsDistinct.Load()) }, labels...)
	r.CounterFunc("kv_cclo_check_bytes_total", "Readers-check response payload bytes, as encoded.",
		func() float64 { return float64(s.stats.CheckBytes.Load()) }, labels...)
	r.CounterFunc("kv_cclo_replication_checks_total", "Readers checks run for replicated updates.",
		func() float64 { return float64(s.stats.ReplicationChecks.Load()) }, labels...)
	r.GaugeFunc("kv_cclo_restart_epoch", "This partition's durable restart epoch (0 = in-memory).",
		func() float64 { return float64(s.epoch) }, labels...)
	for dc := 0; dc < s.cfg.NumDCs; dc++ {
		if dc == s.cfg.DC {
			continue
		}
		dc := dc
		r.GaugeFunc("kv_replication_last_update_age_seconds",
			"Seconds since the last replication batch was received from the peer DC (server start if none yet).",
			func() float64 { return s.lastRepAge(dc).Seconds() },
			append(append([]metrics.Label(nil), labels...), metrics.Label{Name: "peer_dc", Value: strconv.Itoa(dc)})...)
	}
}

// lastRepAge returns the wall-clock age of the newest replicated update
// received from dc, falling back to the server's start time before the
// first one.
func (s *Server) lastRepAge(dc int) time.Duration {
	if dc < 0 || dc >= len(s.lastRep) {
		return 0
	}
	at := s.lastRep[dc].Load()
	if at == 0 {
		at = s.started
	}
	return time.Duration(time.Now().UnixNano() - at)
}

// noteRep stamps receipt of a replicated update from dc.
func (s *Server) noteRep(dc int) {
	if dc >= 0 && dc < len(s.lastRep) {
		s.lastRep[dc].Store(time.Now().UnixNano())
	}
}
