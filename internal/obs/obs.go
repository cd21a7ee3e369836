// Package obs is the process's scrapeable observability surface: a plain
// net/http server exposing the metrics registry in Prometheus text format,
// a JSON status snapshot, the slow-op trace ring, and the standard pprof
// profiling handlers. It has no dependencies beyond the standard library
// and internal/metrics, and it is strictly read-only: nothing served here
// can mutate server state.
//
// The surface is bound to its own listener (kvserver -obs-addr), separate
// from the protocol port, so operators can firewall it independently and a
// scrape stampede cannot occupy protocol accept queues.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// Status is the /statusz document: the process's static identity plus a
// few live readings. Extra holds deployment-specific fields (topology
// path, WAL mode, restart epoch, ...).
type Status struct {
	Protocol  string    `json:"protocol"`
	DC        int       `json:"dc"`
	Partition int       `json:"partition"`
	NumDCs    int       `json:"num_dcs"`
	NumParts  int       `json:"num_partitions"`
	StartedAt time.Time `json:"started_at"`
	UptimeSec float64   `json:"uptime_sec"`
	// Overload is the admission-control verdict: "" when admission is
	// disabled, "admitting" while a token is free, "shedding" while every
	// token is taken and further client requests park or are shed.
	Overload string            `json:"overload,omitempty"`
	Extra    map[string]string `json:"extra,omitempty"`
}

// Server serves the observability surface.
type Server struct {
	reg     *metrics.Registry
	ring    *metrics.SlowRing
	status  func() Status
	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener
}

// Config parameterizes a Server. Registry is required; Slow and Status may
// be nil (the corresponding endpoints then serve empty documents).
type Config struct {
	Registry *metrics.Registry
	Slow     *metrics.SlowRing
	Status   func() Status
}

// New builds the server and its handler mux (also usable standalone via
// Handler, e.g. mounted into a test mux).
func New(cfg Config) *Server {
	s := &Server{reg: cfg.Registry, ring: cfg.Slow, status: cfg.Status}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/slowops", s.handleSlowOps)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the surface's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr and serves in a background goroutine until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listener address ("" before Listen), so callers
// using port 0 can discover the chosen port.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.reg != nil {
		_ = s.reg.WritePrometheus(w)
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var st Status
	if s.status != nil {
		st = s.status()
	}
	st.UptimeSec = time.Since(st.StartedAt).Seconds()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// slowOpJSON is the /debug/slowops wire form of one captured op: phase
// timings in seconds, the key as a hash (keys must not leak onto an HTTP
// surface), newest first.
type slowOpJSON struct {
	At      string  `json:"at"` // RFC3339Nano op start
	Op      string  `json:"op"`
	KeyHash string  `json:"key_hash"` // hex
	Total   float64 `json:"total_sec"`
	Queue   float64 `json:"queue_sec,omitempty"`
	Fsync   float64 `json:"fsync_sec,omitempty"`
	Repl    float64 `json:"repl_sec,omitempty"`
}

func (s *Server) handleSlowOps(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	type doc struct {
		ThresholdSec float64      `json:"threshold_sec"`
		Captured     uint64       `json:"captured_total"`
		Ops          []slowOpJSON `json:"ops"`
	}
	d := doc{
		ThresholdSec: s.ring.Threshold().Seconds(),
		Captured:     s.ring.Len(),
		Ops:          []slowOpJSON{},
	}
	for _, op := range s.ring.Snapshot() {
		d.Ops = append(d.Ops, slowOpJSON{
			At:      time.Unix(0, op.Start).UTC().Format(time.RFC3339Nano),
			Op:      op.Op,
			KeyHash: fmt.Sprintf("%016x", op.KeyHash),
			Total:   op.Total.Seconds(),
			Queue:   op.Queue.Seconds(),
			Fsync:   op.Fsync.Seconds(),
			Repl:    op.Repl.Seconds(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d)
}
