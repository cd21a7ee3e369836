package main

// What the traced run reads besides the decorators' own aggregates: process
// and filesystem facts, polled gauges, and the standalone replays of the
// codec, the storage engine and WAL recovery.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fsType names the filesystem holding dir (the durable workload's fsync cost
// depends on it; on tmpfs the WAL vanishes).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// vmHWM is the process's peak resident set in MB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcPauseP99 is the 99th percentile stop-the-world pause between two
// MemStats readings (the runtime keeps the last 256).
func gcPauseP99(a, b *runtime.MemStats) float64 {
	var p []int64
	for n := max(a.NumGC, b.NumGC-min(b.NumGC, 256)); n < b.NumGC; n++ {
		p = append(p, int64(b.PauseNs[n%256]))
	}
	slices.Sort(p)
	return pct(p, 99)
}

// sampler polls gauges during the traced loaded phase.
type sampler struct {
	quit, done chan struct{}
	goroutines int
	lagSum     float64
	lagN       int
}

func startSampler(r *rig) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.goroutines = max(s.goroutines, runtime.NumGoroutine())
				if lag, ok := visibilityLag(r); ok {
					s.lagSum += lag
					s.lagN++
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() (goroutinesPeak int, gssLagMs float64) {
	close(s.quit)
	<-s.done
	if s.lagN > 0 {
		gssLagMs = s.lagSum / float64(s.lagN) * 1e3
	}
	return s.goroutines, gssLagMs
}

// visibilityLag averages kv_visibility_lag_seconds over the core servers,
// read through the registry's text exposition (its only reader).
func visibilityLag(r *rig) (float64, bool) {
	if r.reg == nil || len(r.cores) == 0 {
		return 0, false
	}
	var b bytes.Buffer
	if err := r.reg.WritePrometheus(&b); err != nil {
		return 0, false
	}
	var sum float64
	var n int
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "kv_visibility_lag_seconds{") {
			if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// replayWire decodes and re-encodes the sampled frames through the public
// codec the way a transport does (pooled frames, pooled request messages).
func replayWire(frames [][]byte) (encNs, decNs, bytesPer, allocsPer float64) {
	if len(frames) == 0 {
		return
	}
	var total int
	for _, f := range frames {
		total += len(f) + wire.FrameHdrLen
	}
	rounds := max(200_000/len(frames), 1)
	envs := make([]*wire.Envelope, len(frames))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var enc, dec time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i, f := range frames {
			env, err := wire.DecodeEnvelope(f)
			if err != nil {
				panic(fmt.Sprintf("benchmark: sampled frame does not decode: %v", err))
			}
			envs[i] = env
		}
		t1 := time.Now()
		for _, env := range envs {
			f := wire.GetFrame()
			f.AppendEnvelope(env)
			wire.PutFrame(f)
		}
		enc += time.Since(t1)
		dec += t1.Sub(t0)
		for _, env := range envs {
			wire.Recycle(env.Msg)
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(rounds * len(frames))
	return float64(enc) / n, float64(dec) / n, float64(total) / float64(len(frames)), float64(m1.Mallocs-m0.Mallocs) / n
}

// replayStore times the engine alone: one partition's keys loaded as
// preload loads them, then the workload's own key stream as reads and as
// installs. The ledger needs this to show the engine is not the bottleneck.
func replayStore(sp *spec, ks *workload.KeySpace, st *opStream) (readNs, putNs float64) {
	eng := store.New[vclock.Vec, struct{}](0, 0)
	val := make([]byte, sp.Mix.ValueSize)
	dv := vclock.New(numDCs)
	dv[0] = 1
	for _, pool := range ks.Keys {
		for _, k := range pool {
			eng.Install(k, store.Version[vclock.Vec]{Value: val, TS: 1, Extra: dv})
		}
	}
	const n = 400_000
	var sink int
	t0 := time.Now()
	for i, done := 0, 0; done < n; i++ {
		for _, k := range st.ops[i%len(st.ops)].keys {
			if v := eng.Latest(k); v != nil {
				sink += len(v.Value)
			}
			done++
		}
	}
	readNs = float64(time.Since(t0)) / n
	t0 = time.Now()
	for i := 0; i < n; i++ {
		k := st.ops[i%len(st.ops)].keys[0]
		eng.Install(k, store.Version[vclock.Vec]{Value: val, TS: uint64(i) + 2, Extra: dv})
	}
	putNs = float64(time.Since(t0)) / n
	if sink < 0 {
		panic("unreachable")
	}
	return readNs, putNs
}

// recoverCost reopens every partition's log after the run and replays it,
// as a restarted server would: microseconds per thousand records.
func recoverCost(dataDir string) (float64, error) {
	dirs, err := filepath.Glob(filepath.Join(dataDir, "dc*-p*"))
	if err != nil {
		return 0, err
	}
	var nanos, recs uint64
	for _, d := range dirs {
		l, err := wal.Open(wal.Options{Dir: d, Sync: wal.SyncAlways})
		if err != nil {
			return 0, fmt.Errorf("reopen %s: %w", d, err)
		}
		if err := l.Replay(func(wal.Record) error { return nil }); err != nil {
			l.Close()
			return 0, fmt.Errorf("replay %s: %w", d, err)
		}
		v := l.Stats().View()
		nanos += v.RecoveryNanos
		recs += v.RecoveredRecords
		if err := l.Close(); err != nil {
			return 0, err
		}
	}
	if recs == 0 {
		return 0, nil
	}
	return float64(nanos) / 1e3 / float64(recs) * 1e3, nil
}
