// Command kvserver runs one partition server (or one DC stabilizer) of the
// causally consistent store over real TCP, making the same protocol code
// the benchmarks measure deployable across processes and machines.
//
// A deployment is described by a topology file, one line per process:
//
//	# dc  partition|stab  host:port
//	0 0    127.0.0.1:7000
//	0 1    127.0.0.1:7001
//	0 stab 127.0.0.1:7099
//
// Start one kvserver per line:
//
//	kvserver -topology topo.txt -protocol contrarian -dc 0 -partition 0
//	kvserver -topology topo.txt -protocol contrarian -dc 0 -partition 1
//	kvserver -topology topo.txt -protocol contrarian -dc 0 -stabilizer
//
// then interact with cmd/kvctl.
//
// With -data-dir the partition becomes durable: every acknowledged install
// is group-committed to a segmented write-ahead log under that directory
// before the client sees the ack, and a restarted server (even after kill
// -9) recovers it — including tolerating the torn final record a crash
// mid-commit can leave.
//
// With -obs-addr the process serves its observability surface on a separate
// HTTP listener: /metrics (Prometheus text format), /statusz (JSON
// identity+uptime), /debug/pprof (standard profiles), and /debug/slowops
// (the ring of handler executions slower than -slow-op).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	// The flags bind straight into the cluster.Config the in-process
	// harness uses: one struct says what a partition server is made of.
	var cfg cluster.Config
	var (
		topoPath   = flag.String("topology", "", "topology file (required)")
		dc         = flag.Int("dc", 0, "this server's data center")
		partition  = flag.Int("partition", 0, "this server's partition index")
		stabilizer = flag.Bool("stabilizer", false, "run the DC's stabilization service instead of a partition (timestamp protocols only)")
		obsAddr    = flag.String("obs-addr", "", "observability HTTP listener: /metrics (Prometheus text), /statusz, /debug/pprof, /debug/slowops (empty = disabled)")
		slowOp     = flag.Duration("slow-op", 25*time.Millisecond, "slow-op trace threshold: handler executions at or above it are kept in the /debug/slowops ring")
	)
	flag.Func("protocol", "protocol slug (default contrarian); an unknown one is rejected with the accepted list", func(s string) (err error) {
		cfg.Protocol, err = cluster.ParseProtocol(s)
		return err
	})
	flag.StringVar(&cfg.DataDir, "data-dir", "", "durability root: group-commit every install to a WAL under this directory and recover it on restart (partitions only; empty = in-memory)")
	flag.DurationVar(&cfg.WALSnapshotEvery, "wal-snapshot-every", time.Minute, "periodic WAL snapshot+truncate interval (with -data-dir; 0 disables)")
	flag.Int64Var(&cfg.WALSegmentBytes, "wal-segment-bytes", 0, "WAL segment size before rotation (0 = default 64 MiB)")
	flag.Func("wal-sync", "WAL acknowledgment contract: sync (default; acked ⇒ fsynced) or async (contrarian/contrarian2r/cure: acked ⇒ written, fsync within -wal-fsync-every; cclo/cops still ack after the fsync)", func(s string) (err error) {
		cfg.WALSync, err = wal.ParseSyncMode(s)
		return err
	})
	flag.DurationVar(&cfg.WALFsyncEvery, "wal-fsync-every", 0, "async mode's bounded loss window (0 = default 2ms)")
	flag.DurationVar(&cfg.RepFlushEvery, "rep-flush-every", 0, "replication flush period for the timestamp-based engine (0 = default 2ms; tests stretch it to hold replication back)")
	flag.DurationVar(&cfg.ReaderGCWindow, "reader-gc-window", 0, "CC-LO reader GC window: how long reader records, old-reader entries, and invisibility marks live (0 = default 500ms; crash tests stretch it)")
	flag.IntVar(&cfg.AdmitLimit, "admit-limit", 0, "client admission cap: max concurrently running client handlers; excess client requests are shed with a typed busy+retry-after response (0 = unbounded; cluster traffic is never gated)")
	flag.Parse()
	if *topoPath == "" {
		log.Fatal("kvserver: -topology is required")
	}
	f, err := os.Open(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := cluster.ParseTopology(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	cfg.DCs, cfg.Partitions = topo.DCs, topo.Partitions
	if *dc < 0 || *dc >= topo.DCs {
		log.Fatalf("kvserver: -dc %d outside topology (have %d DCs)", *dc, topo.DCs)
	}
	if !*stabilizer && (*partition < 0 || *partition >= topo.Partitions) {
		log.Fatalf("kvserver: -partition %d outside topology (have %d partitions)", *partition, topo.Partitions)
	}

	net := transport.NewTCP(topo.Directory)
	defer net.Close()

	// Observability: one registry + slow-op ring per process, served from a
	// dedicated listener so scrapes never contend with protocol traffic.
	started := time.Now()
	var reg *metrics.Registry
	if *obsAddr != "" {
		reg = metrics.NewRegistry()
		cfg.Slow = metrics.NewSlowRing(1024, *slowOp)
		net.Stats().Register(reg)
	}

	var (
		closer interface{ Close() error }
		walLog *wal.Log
	)
	if *stabilizer {
		st, err := cfg.NewStabilizer(*dc, net)
		if err != nil {
			log.Fatalf("kvserver: -stabilizer: %v", err)
		}
		if reg != nil {
			st.RegisterMetrics(reg,
				metrics.Label{Name: "family", Value: cfg.Protocol.Slug()},
				metrics.Label{Name: "dc", Value: strconv.Itoa(*dc)})
		}
		st.Start()
		closer = st
		log.Printf("stabilizer for dc%d up (%d partitions, %d DCs)", *dc, topo.Partitions, topo.DCs)
	} else {
		// The same three calls cluster.Start makes per partition. The WAL
		// is opened before the server so construction replays the recovered
		// state, and closed after it so the final appends are flushed on
		// graceful shutdown; the admission gate is created at Attach time,
		// so its limit is set before the server attaches.
		if walLog, err = cfg.OpenLog(*dc, *partition); err != nil {
			log.Fatal(err)
		}
		net.SetAdmission(cfg.AdmitLimit)
		srv, err := cfg.NewServer(*dc, *partition, 0, walLog, net)
		if err != nil {
			log.Fatal(err)
		}
		if reg != nil {
			// Per-process metric labels: the family plus this server's
			// coordinates.
			labels := []metrics.Label{
				{Name: "family", Value: cfg.Protocol.Slug()},
				{Name: "dc", Value: strconv.Itoa(*dc)},
				{Name: "partition", Value: strconv.Itoa(*partition)},
			}
			srv.RegisterMetrics(reg, labels...)
			if walLog != nil {
				walLog.Stats().Register(reg, labels...)
			}
			if cfg.AdmitLimit > 0 {
				net.AdmitStats().Register(reg, labels...)
			}
		}
		srv.Start()
		closer = srv
		log.Printf("%s partition dc%d/p%d up", cfg.Protocol.Slug(), *dc, *partition)
	}

	if reg != nil {
		srv := obs.New(obs.Config{
			Registry: reg,
			Slow:     cfg.Slow,
			Status: func() obs.Status {
				extra := map[string]string{"topology": *topoPath, "wal": "off"}
				if walLog != nil {
					extra["wal"] = cfg.WALSync.String()
					extra["epoch"] = strconv.FormatUint(walLog.Epoch(), 10)
				}
				if *stabilizer {
					extra["role"] = "stabilizer"
				}
				tv := net.Stats().View()
				extra["open_conns"] = strconv.FormatInt(tv.OpenConns, 10)
				extra["sessions"] = strconv.FormatInt(tv.Sessions, 10)
				overload := ""
				if cfg.AdmitLimit > 0 && !*stabilizer {
					if net.AdmitStats().Depth.Load() >= int64(cfg.AdmitLimit) {
						overload = "shedding"
					} else {
						overload = "admitting"
					}
				}
				return obs.Status{
					Overload:  overload,
					Protocol:  cfg.Protocol.Slug(),
					DC:        *dc,
					Partition: *partition,
					NumDCs:    topo.DCs,
					NumParts:  topo.Partitions,
					StartedAt: started,
					Extra:     extra,
				}
			},
		})
		if err := srv.Listen(*obsAddr); err != nil {
			log.Fatalf("kvserver: obs listener: %v", err)
		}
		defer srv.Close()
		log.Printf("observability surface on http://%s (/metrics /statusz /debug/pprof /debug/slowops)", srv.Addr())
	}

	if walLog != nil {
		v := walLog.Stats().View()
		log.Printf("wal: recovered %d records in %v (%d torn tail(s) tolerated)",
			v.RecoveredRecords, time.Duration(v.RecoveryNanos).Round(time.Microsecond), v.TornTails)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	closer.Close()
	if walLog != nil {
		// After the server: its in-flight appends have drained, so this
		// flush makes the shutdown clean (recovery then sees no torn tail).
		walLog.Close()
	}
}
