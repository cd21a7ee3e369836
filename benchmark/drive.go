package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/wire"
	"repro/internal/workload"
)

// genOp is one pre-generated operation: a PUT of keys[0] or a ROT of keys.
type genOp struct {
	put  bool
	keys []string
}

// opStream is one session's operation sequence, generated from the seed
// before any clock starts and replayed cyclically, so the generator's cost
// (zipfian draws) never sits inside a timed closed loop.
type opStream struct{ ops []genOp }

// buildStreams pre-generates n streams from seed and returns them with a
// hash of their contents (the same seed must yield the same hash).
func buildStreams(mix workload.Config, ks *workload.KeySpace, seed int64, n int) ([]*opStream, uint64) {
	h := fnv.New64a()
	out := make([]*opStream, n)
	for i := range out {
		g := workload.NewGen(mix, ks, seed*1000003+int64(i)*7919+1)
		st := &opStream{ops: make([]genOp, streamLen)}
		backing := make([]string, 0, streamLen*mix.RotSize)
		for j := range st.ops {
			op := g.Next()
			from := len(backing)
			backing = append(backing, op.Keys...)
			st.ops[j] = genOp{put: op.Kind == workload.OpPut, keys: backing[from:len(backing):len(backing)]}
			if st.ops[j].put {
				h.Write([]byte{'P'})
			} else {
				h.Write([]byte{'R'})
			}
			for _, k := range op.Keys {
				h.Write([]byte(k))
			}
		}
		out[i] = st
	}
	return out, h.Sum64()
}

// session is one closed-loop client: a protocol session plus its op stream
// and its preallocated sample buffer.
type session struct {
	tag    uint16 // unique per session; stamped into every value it writes
	cli    kvClient
	ts     *tracedSession // nil in the untraced run
	stream *opStream
	pos    int
	seq    uint64
	value  []byte

	// samples holds the current phase's raw nanosecond latencies, shifted
	// left one bit over a PUT flag: exact percentiles need every sample, not
	// buckets.
	samples []int64
	dropped uint64 // samples past sampleCap (counted, not kept)
}

// nextValue stamps a value no other put of this run carries: marker byte,
// session tag, sequence number. The preloaded value starts with byte 0, so
// the 0xFF marker keeps them apart (check.History identifies versions by
// value).
func (s *session) nextValue() []byte {
	s.seq++
	s.value[0] = 0xFF
	binary.BigEndian.PutUint16(s.value[1:3], s.tag)
	s.value[3] = byte(s.seq >> 32)
	binary.BigEndian.PutUint32(s.value[4:8], uint32(s.seq))
	return s.value
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	window     time.Duration
	puts       uint64 // completed inside the window
	rots       uint64
	attempted  uint64  // issued by the phase, inside the window or not
	failed     uint64  // errors, timeouts, wrong results
	putNs      []int64 // sorted
	rotNs      []int64 // sorted
	dropped    uint64
	sliceRates []float64 // ops/s in each whole slice of the window, in time order (logged, not reported)
}

func (p phaseResult) ops() uint64 { return p.puts + p.rots }

// rate is completed operations per second over the whole window. (Not a
// median over slices: garbage-collection cycles make slices bimodal — see
// README.md — and the mean over many cycles is what repeats.)
func (p phaseResult) rate() float64 { return float64(p.ops()) / p.window.Seconds() }

// opTimeout bounds one operation; exceeding it is a failure.
const opTimeout = 5 * time.Second

// validROT checks a ROT's result shape: one item per key, in key order, and
// a value for each (every key is preloaded, so none may be missing).
func validROT(keys []string, kvs []wire.KV) bool {
	if len(kvs) != len(keys) {
		return false
	}
	for i := range kvs {
		if kvs[i].Key != keys[i] || len(kvs[i].Value) == 0 {
			return false
		}
	}
	return true
}

// runPhase drives the sessions closed-loop: discard, then a measured
// window. With stopAfter > 0 it instead stops once that many operations
// completed (the fixed-work warm-up). rec, when set, records every
// operation into the consistency checker. atStart and atEnd, when set, run
// at the measured window's edges (counter snapshots for deltas).
func runPhase(sessions []*session, discard, window time.Duration, stopAfter uint64, rec *check.History, atStart, atEnd func()) phaseResult {
	var (
		stop atomic.Bool
		done atomic.Uint64 // warm-up only
		wg   sync.WaitGroup
	)
	whole := int(window / sliceLen) // whole slices only: a trailing partial one would read low
	begin := time.Now()
	winStart := begin.Add(discard)
	winEnd := winStart.Add(window)
	if stopAfter > 0 {
		winStart, winEnd = begin, begin.Add(time.Hour)
	}
	// Per-session tallies: the hot loop shares nothing but the stop flag.
	type tally struct {
		puts, rots, attempted, failed uint64
		slices                        []uint64
	}
	per := make([]tally, len(sessions))
	for i, s := range sessions {
		s.samples = s.samples[:0]
		s.dropped = 0
		per[i].slices = make([]uint64, whole+1)
		wg.Add(1)
		go func(t *tally, s *session) {
			defer wg.Done()
			var hc *check.Client
			if rec != nil {
				hc = rec.Client(fmt.Sprintf("s%04x", s.tag))
			}
			for !stop.Load() {
				op := s.stream.ops[s.pos]
				s.pos = (s.pos + 1) % len(s.stream.ops)
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				t.attempted++
				t0 := time.Now()
				if s.ts != nil {
					s.ts.begin(op.put, t0)
				}
				ok := true
				if op.put {
					val := s.nextValue()
					ts, err := s.cli.Put(ctx, op.keys[0], val)
					ok = err == nil
					if ok && hc != nil {
						hc.Put(op.keys[0], string(val), ts)
					}
				} else {
					kvs, err := s.cli.ROT(ctx, op.keys)
					ok = err == nil && validROT(op.keys, kvs)
					if ok && hc != nil {
						reads := make([]check.Read, len(kvs))
						for i, kv := range kvs {
							reads[i] = check.Read{Key: kv.Key, Val: string(kv.Value), TS: kv.TS}
						}
						hc.ReadTx(reads)
					}
				}
				t1 := time.Now()
				cancel()
				if s.ts != nil {
					s.ts.end(t1)
				}
				if !ok {
					t.failed++
					continue
				}
				if stopAfter > 0 {
					if done.Add(1) >= stopAfter {
						stop.Store(true)
					}
					continue
				}
				if t1.Before(winStart) || t1.After(winEnd) {
					continue
				}
				t.slices[min(int(t1.Sub(winStart)/sliceLen), whole)]++
				d := t1.Sub(t0).Nanoseconds() << 1
				if op.put {
					t.puts++
					d |= 1
				} else {
					t.rots++
				}
				if len(s.samples) < cap(s.samples) {
					s.samples = append(s.samples, d)
				} else {
					s.dropped++
				}
			}
		}(&per[i], s)
	}
	if stopAfter == 0 {
		time.Sleep(time.Until(winStart))
		if atStart != nil {
			atStart()
		}
		time.Sleep(time.Until(winEnd))
		if atEnd != nil {
			atEnd()
		}
		stop.Store(true)
	}
	wg.Wait()

	res := phaseResult{window: window}
	for i := range per {
		res.attempted += per[i].attempted
		res.failed += per[i].failed
	}
	if stopAfter > 0 {
		res.window = time.Since(begin)
		return res
	}
	res.sliceRates = make([]float64, whole)
	for i, s := range sessions {
		res.puts += per[i].puts
		res.rots += per[i].rots
		res.dropped += s.dropped
		for j := range res.sliceRates {
			res.sliceRates[j] += float64(per[i].slices[j]) / sliceLen.Seconds()
		}
		for _, v := range s.samples {
			if v&1 == 1 {
				res.putNs = append(res.putNs, v>>1)
			} else {
				res.rotNs = append(res.rotNs, v>>1)
			}
		}
	}
	slices.Sort(res.putNs)
	slices.Sort(res.rotNs)
	return res
}

// pct returns the exact p-th percentile (nearest rank) of sorted samples.
func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

// visResult is the visibility phase: put-ack in DC0 to the first read in
// DC1 that returns the value.
type visResult struct {
	ns        []int64 // sorted
	attempted uint64
	failed    uint64
}

// runVis issues sequential probes: a session in DC0 puts a fresh value, a
// session in DC1 polls the key until it reads that value. It stops after
// probes probes or at the deadline, whichever comes first.
func runVis(writer, reader *session, ks *workload.KeySpace, probes int, limit time.Duration) visResult {
	var res visResult
	deadline := time.Now().Add(limit)
	for i := 0; i < probes && time.Now().Before(deadline); i++ {
		// Rotate over the cold end of every partition's pool so probes do
		// not queue behind the hot keys' version chains.
		pool := ks.Keys[i%len(ks.Keys)]
		key := pool[len(pool)-1-(i/len(ks.Keys))%64]
		val := append([]byte(nil), writer.nextValue()...)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		res.attempted++
		if _, err := writer.cli.Put(ctx, key, val); err != nil {
			cancel()
			res.failed++
			continue
		}
		acked := time.Now()
		seen := false
		for ctx.Err() == nil {
			res.attempted++
			kvs, err := reader.cli.ROT(ctx, []string{key})
			if err != nil || len(kvs) != 1 {
				break
			}
			if bytes.Equal(kvs[0].Value, val) {
				res.ns = append(res.ns, time.Since(acked).Nanoseconds())
				seen = true
				break
			}
		}
		cancel()
		if !seen {
			res.failed++
		}
	}
	slices.Sort(res.ns)
	return res
}

// converged reports whether both DCs return the same latest version of the
// sampled keys (the hottest keys of every partition, the ones the verify
// traffic wrote) within the deadline.
func converged(a, b *session, ks *workload.KeySpace, limit time.Duration) bool {
	var keys []string
	for _, pool := range ks.Keys {
		keys = append(keys, pool[:min(32, len(pool))]...)
	}
	deadline := time.Now().Add(limit)
	for {
		same := true
		for i := 0; i < len(keys) && same; i += 4 {
			batch := keys[i:min(i+4, len(keys))]
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			x, errA := a.cli.ROT(ctx, batch)
			y, errB := b.cli.ROT(ctx, batch)
			cancel()
			if errA != nil || errB != nil || len(x) != len(y) {
				same = false
				break
			}
			for j := range x {
				if x[j].TS != y[j].TS || !bytes.Equal(x[j].Value, y[j].Value) {
					same = false
				}
			}
		}
		if same {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
