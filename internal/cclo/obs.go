package cclo

import "repro/internal/metrics"

// registerChecks exposes the readers-check overhead counters and the
// restart epoch under r: what CC-LO adds to the skeleton's series
// (family.Partition.RegisterMetrics).
func (s *Server) registerChecks(r *metrics.Registry, labels ...metrics.Label) {
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
}
