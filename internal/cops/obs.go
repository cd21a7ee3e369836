package cops

import "repro/internal/metrics"

// RegisterMetrics exposes the server's per-op histograms, store occupancy,
// and replication-receipt ages under r. Labels should identify the
// partition (dc, partition, family).
func (s *Server) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	s.LoServer.RegisterMetrics(r, labels...)
	s.store.eng.Register(r, labels...)
}
