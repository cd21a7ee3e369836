package cclo

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
)

func seqVal(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func seqOf(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// samePartKeys returns two keys owned by the same partition.
func samePartKeys(r ring.Ring) (string, string) {
	x := "x"
	for i := 0; ; i++ {
		y := fmt.Sprintf("y%d", i)
		if r.Owner(y) == r.Owner(x) {
			return x, y
		}
	}
}

// runSnapshotChecker drives one chained writer (PUT x=i; PUT y=i) against
// concurrent ROT{x,y} readers and fails on a snapshot where y is newer
// than x.
func runSnapshotChecker(t *testing.T, lat transport.LatencyModel, pick func(ring.Ring) (string, string)) {
	t.Helper()
	net := transport.NewLocal(lat)
	defer net.Close()
	const parts = 4
	r := ring.New(parts)
	var servers []*Server
	for p := 0; p < parts; p++ {
		s, err := NewServer(Config{DC: 0, Part: p, NumDCs: 1, NumParts: parts}, net)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	x, y := pick(r)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	w := dial(t, ClientConfig{DC: 0, ID: 1, Ring: r}, net)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); !stop.Load(); i++ {
			if _, err := w.Put(ctx, x, seqVal(i)); err != nil {
				errCh <- err
				return
			}
			if _, err := w.Put(ctx, y, seqVal(i)); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for rd := 0; rd < 3; rd++ {
		cli := dial(t, ClientConfig{DC: 0, ID: 10 + rd, Ring: r}, net)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				kvs, err := cli.ROT(ctx, []string{x, y})
				if err != nil {
					errCh <- err
					return
				}
				xi, yi := seqOf(kvs[0].Value), seqOf(kvs[1].Value)
				if yi > xi {
					errCh <- fmt.Errorf("snapshot violation: x=%d y=%d", xi, yi)
					return
				}
			}
		}()
	}

	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSamePartition is the same-partition variant of the cluster
// checker: both keys on one partition, served by a single LoRotReq. This
// is the configuration that exposed a snapshot violation in the photoalbum
// example.
func TestSnapshotSamePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	runSnapshotChecker(t, transport.LatencyModel{IntraDC: 100 * time.Microsecond, JitterFrac: 0.1}, samePartKeys)
}

// TestSnapshotDistinctPartitions mirrors the cluster-level checker inside
// the package for quick iteration.
func TestSnapshotDistinctPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	runSnapshotChecker(t, transport.LatencyModel{IntraDC: 100 * time.Microsecond, JitterFrac: 0.1},
		func(r ring.Ring) (string, string) {
			x := "x"
			for i := 0; ; i++ {
				y := fmt.Sprintf("y%d", i)
				if r.Owner(y) != r.Owner(x) {
					return x, y
				}
			}
		})
}
