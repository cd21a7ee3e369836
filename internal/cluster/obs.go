package cluster

import (
	"strconv"

	"repro/internal/metrics"
)

// RegisterMetrics exposes the whole simulated cluster under one registry:
// the shared transport, every partition server's per-op histograms,
// replication-lag gauges and store occupancy, every WAL, every DC's
// stabilizer (the stabilized families) and (for CC-LO) the aggregate client
// fence-retry counter. Series are labeled by family, dc, and partition.
//
// Call it at most once per cluster, after Start. Partition servers
// restarted afterwards (crash tests) allocate fresh stats structs and
// detach from the registered series; the benchmark and serving paths never
// restart partitions, so scrapes there stay live.
func (c *Cluster) RegisterMetrics(r *metrics.Registry) {
	c.net.Stats().Register(r)
	fam := metrics.Label{Name: "family", Value: c.cfg.Protocol.Slug()}
	if c.cfg.AdmitLimit > 0 {
		c.net.AdmitStats().Register(r, fam)
		r.CounterFunc("kv_admission_client_retries_total",
			"Client-side Busy retries, summed over all sessions.",
			func() float64 { return float64(c.ClientBusyRetries()) }, fam)
	}
	for dc := 0; dc < c.cfg.DCs; dc++ {
		for p := 0; p < c.cfg.Partitions; p++ {
			idx := dc*c.cfg.Partitions + p
			labels := []metrics.Label{
				fam,
				{Name: "dc", Value: strconv.Itoa(dc)},
				{Name: "partition", Value: strconv.Itoa(p)},
			}
			if srv := c.servers[idx]; srv != nil {
				srv.RegisterMetrics(r, labels...)
			}
			if l := c.logs[idx]; l != nil {
				l.Stats().Register(r, labels...)
			}
		}
	}
	for dc, st := range c.stabs {
		st.RegisterMetrics(r, fam, metrics.Label{Name: "dc", Value: strconv.Itoa(dc)})
	}
	c.registerFenceRetries(r, fam)
}
