// Package wal is the durability subsystem: a segmented append-only
// write-ahead log with group commit, periodic snapshots, and crash
// recovery.
//
// Every acknowledged install is appended as one length-prefixed,
// CRC-checked record (encoded with the internal/wire codecs into pooled
// frame buffers, so the hot path allocates nothing). Concurrent appends are
// group-committed: a single committer goroutine drains everything queued,
// writes it to the active segment, and retires the whole batch with one
// fsync — the same coalescing lever the TCP transport applies to frames,
// applied to disk syncs. Callers block until their record is durable, so an
// acknowledged write always survives a crash.
//
// The log is segmented so it can be truncated: a snapshot serializes the
// owning store's latest versions (via its ForEachLatest-style iterator)
// into a snapshot file covering every sealed segment, after which those
// segments and older snapshots are deleted. Recovery loads the newest valid
// snapshot and replays the remaining segments in order; a torn final record
// — the half-written tail of a crash mid-commit — is detected by the CRC
// (or a short read) and tolerated, because a torn record was by definition
// never acknowledged.
//
// Beyond installs, the log persists per-stream replication cursors: the
// highest timestamp a remote DC has acknowledged back to this partition.
// Cursors make the durability and replication state recover together — a
// restarted partition knows exactly which prefix of its local writes every
// remote DC already holds and re-enqueues the rest. Cursor records ride the
// same segments as installs and are folded into snapshots so truncation
// never loses them; losing the tail of cursor updates is always safe (the
// sender merely re-ships an acknowledged suffix, which receivers drop or
// install idempotently).
//
// Two sync modes are offered. SyncAlways (the default) is the classic
// contract: Append returns only after the covering fsync, so an
// acknowledged write always survives a crash. SyncBackground acknowledges
// once the record is written to the OS and fsyncs on a timer, trading a
// bounded loss window (FsyncEvery) for write latency — the measurable
// latency/durability trade-off of the figures. Callers that must never act
// on un-fsynced data (the replication gates) use AppendSynced, whose
// callback fires only after the real fsync in either mode.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// WAL errors.
var (
	ErrClosed  = errors.New("wal: closed")
	ErrCorrupt = errors.New("wal: corrupt record before final segment tail")

	errNoSource = errors.New("wal: no snapshot source registered")
)

// Record kinds.
const (
	// RecInstall is one durable version install (the default zero value).
	RecInstall uint8 = 0
	// RecCursor is a replication-cursor update: SrcDC holds the destination
	// DC, TS the acknowledged HighTS.
	RecCursor uint8 = 1
	// RecEpoch is the partition's restart epoch: TS holds the epoch value.
	// The epoch bumps once per recovery (see SetEpoch) and fences CC-LO
	// read-only transactions across restarts: a ROT that observes two
	// incarnations of a partition cannot rely on the soft reader state the
	// crash destroyed, so it retries.
	RecEpoch uint8 = 2
	// RecReaders is an old-reader record: the invisibility marks of the
	// version identified by (Key, TS, SrcDC). Key/TS/SrcDC name the version
	// and Readers lists the ROTs it is hidden from. Persisting the marks is
	// what lets recovery rebuild rewind protection for ROTs that were in
	// flight at the crash — the one piece of reader state epoch fencing
	// alone cannot reconstruct.
	RecReaders uint8 = 3
)

// Record is one durable log entry. Installs carry the union of the version
// metadata the three protocol families persist: the timestamp engine's
// dependency vector (DV), COPS' nearest-dependency list (Deps), or neither
// (CC-LO). Cursor and epoch records reuse SrcDC and TS as documented on
// RecCursor and RecEpoch.
type Record struct {
	Kind    uint8
	Key     string
	Value   []byte
	TS      uint64
	SrcDC   uint8
	DV      vclock.Vec         // timestamp-based engine; nil otherwise
	Deps    []wire.LoDep       // COPS; nil otherwise
	Readers []wire.ReaderEntry // reader records: the version's invisibility marks
}

// Cursor is one stream's durable replication frontier: the receiver in
// DstDC has acknowledged every local update with timestamp ≤ HighTS. A
// partition recovering its WAL re-enqueues the local updates above HighTS.
type Cursor struct {
	DstDC  uint8
	HighTS uint64
}

// SnapshotSource streams the current durable state of a store, one Record
// per key (its latest version). emit returns a non-nil error when the
// snapshot writer fails; the source must stop and return it.
type SnapshotSource func(emit func(Record) error) error

// Durability is what a protocol server needs from a durability backend. A
// nil Durability means the server runs purely in memory (the default, so
// benchmark figures are unaffected unless a data dir is configured).
type Durability interface {
	// Append makes recs durable per the log's SyncMode before returning:
	// under SyncAlways the covering fsync has completed; under
	// SyncBackground the records are written to the OS and the fsync is
	// pending (the bounded loss window). Concurrent Appends are
	// group-committed into shared fsyncs. No server calls it (installs wait
	// for their fsync); it stays for the benchmark's tracing decorator.
	Append(recs ...Record) error
	// AppendSynced is Append plus a real-durability notification: synced
	// fires with nil exactly when the fsync covering recs has completed
	// (under SyncAlways, before AppendSynced returns). Callbacks fire in
	// log order, from the committer goroutine — keep them short and never
	// call back into the log. On failure, synced fires at most once with
	// the error — possibly in addition to AppendSynced returning it, or
	// not at all when the request never reached the committer — so error
	// cleanup must be idempotent; act only on synced(nil).
	AppendSynced(recs []Record, synced func(error)) error
	// AppendCursor persists a replication-cursor update (per SyncMode) and
	// folds it into the in-memory cursor table.
	AppendCursor(c Cursor) error
	// Cursors returns the recovered-plus-appended cursor table, one entry
	// per destination DC, sorted by DC. Recovery fills it during Replay,
	// so call Replay first; it is stable to read before serving starts.
	Cursors() []Cursor
	// Epoch returns the current restart epoch (0 before any SetEpoch).
	// Recovery fills it during Replay, so call Replay first.
	Epoch() uint64
	// SetEpoch durably records a new restart epoch, waiting for the real
	// fsync regardless of SyncMode: an epoch the next crash could take back
	// would let two distinct incarnations share one epoch, and the fence
	// would miss restarts between them. Call it once, after Replay and
	// before serving.
	SetEpoch(e uint64) error
	// Replay streams every recovered install — newest valid snapshot first,
	// then the log tail — in apply order. Cursor records are consumed into
	// the cursor table and not passed to apply. Call it once, before
	// serving.
	Replay(apply func(Record) error) error
	// SetSnapshotSource registers the store serializer used by snapshots.
	SetSnapshotSource(src SnapshotSource)
}

// SyncMode selects when Append acknowledges relative to fsync.
type SyncMode uint8

const (
	// SyncAlways acknowledges only after the covering fsync: an
	// acknowledged write always survives a crash.
	SyncAlways SyncMode = iota
	// SyncBackground acknowledges once the record is written to the OS and
	// fsyncs on the FsyncEvery timer: a crash may lose up to one window of
	// acknowledged writes, never more. Replication gates still wait for
	// the real fsync (AppendSynced), so a write lost to the window is lost
	// everywhere — replicas never diverge.
	SyncBackground
)

// String names the mode as the -wal-sync flag spells it.
func (m SyncMode) String() string {
	if m == SyncBackground {
		return "async"
	}
	return "sync"
}

// ParseSyncMode parses "sync" or "async".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "sync":
		return SyncAlways, nil
	case "async":
		return SyncBackground, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown sync mode %q (want sync|async)", s)
	}
}

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory (required; created if absent).
	Dir string
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one opened (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery is the periodic snapshot interval; 0 disables periodic
	// snapshots (Snapshot can still be called explicitly).
	SnapshotEvery time.Duration
	// Sync selects the acknowledgment contract (default SyncAlways).
	Sync SyncMode
	// FsyncEvery bounds the SyncBackground loss window (default 2ms).
	FsyncEvery time.Duration
}

const (
	defaultSegmentBytes = 64 << 20

	// recHdrLen prefixes every record: u32 body length, u32 CRC32-C.
	recHdrLen = 8
	// fileHdrLen prefixes every segment and snapshot file: 8-byte magic
	// plus the u64 segment sequence (or snapshot cut).
	fileHdrLen = 16
	// maxRecordLen bounds a single record body, mirroring the wire codec's
	// field limit; larger lengths in a file mean corruption.
	maxRecordLen = 1 << 26

	// maxBatchReqs caps how many queued appends one group commit retires,
	// bounding the latency of the first waiter in a deep queue.
	maxBatchReqs = 1024
)

var (
	// Format 04 is the only format this build reads or writes: a file
	// carrying an older magic (03 has stream sequences in its cursor and
	// epoch records, 02 lacks restart epochs and old-reader records, 01
	// predates the Kind byte) fails the header check rather than being
	// misparsed.
	segMagic  = [8]byte{'C', 'K', 'V', 'W', 'A', 'L', '0', '4'}
	snapMagic = [8]byte{'C', 'K', 'V', 'S', 'N', 'P', '0', '4'}

	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

func segName(seq uint64) string  { return fmt.Sprintf("seg-%016d.wal", seq) }
func snapName(cut uint64) string { return fmt.Sprintf("snap-%016d.snap", cut) }

// Log is a durable write-ahead log rooted at a directory. It implements
// Durability. All methods are safe for concurrent use.
type Log struct {
	opts  Options
	stats Stats

	appendCh chan *commitReq
	stop     chan struct{} // closed by Close; stops intake
	dead     chan struct{} // closed when the committer has exited
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Recovery set, fixed at Open and consumed by Replay.
	snapPath string
	snapCut  uint64
	segPaths []string // ascending by sequence, excludes the active segment

	// Active segment state, owned by the committer goroutine after Open.
	active     *os.File
	activePath string
	activeSeq  uint64
	activeSize int64
	// syncedSize is how much of the active segment the last fsync covered.
	// Crash() truncates back to it, modelling the kernel page-cache loss a
	// power cut inflicts on un-fsynced writes. Written by the committer,
	// read after wg.Wait (the WaitGroup orders the accesses).
	syncedSize int64
	// pendingSynced holds, in log order, the synced callbacks of records
	// written but not yet covered by an fsync (SyncBackground only; under
	// SyncAlways every commit fsyncs, so the list never survives a batch).
	pendingSynced []func(error)
	// broken latches the first write/sync/rotate failure. A partial record
	// may now sit mid-file, and anything appended after it would be
	// unreachable to recovery (replay stops at the first bad CRC), so the
	// committer must never acknowledge another append: every subsequent
	// request fails with this error until the process restarts and
	// recovery truncates its view at the damage.
	broken error

	// crashed marks a Crash() shutdown: skip the final fsync so the
	// truncation to syncedSize faithfully discards the loss window.
	crashed atomic.Bool

	cursorMu sync.Mutex
	cursors  map[uint8]Cursor

	// epoch is the partition's restart epoch: recovered by Replay (max over
	// epoch records), advanced by SetEpoch.
	epoch atomic.Uint64

	snapMu sync.Mutex // serializes Snapshot runs
	srcMu  sync.Mutex
	src    SnapshotSource
	looped bool
}

// commitReq is one queued unit of committer work: an append (buf non-nil)
// or a rotation request (rotated non-nil). done always receives exactly one
// result; rotated receives the new active sequence before done on success.
// synced, when non-nil, fires once the records' covering fsync completes.
type commitReq struct {
	buf        *wire.FrameBuf
	recs       int
	readerRecs int // RecReaders among recs (metadata, counted separately)
	// forceSync makes the committer fsync this batch immediately even under
	// SyncBackground (SetEpoch's recovery-time contract must not wait out
	// the background timer). The batch fsync covers every request in it.
	forceSync bool
	synced    func(error)
	done      chan error
	rotated   chan uint64
}

// Open opens (or creates) the log at opts.Dir, scans it for recovery, and
// starts the committer. Appends go to a fresh segment; call Replay to
// recover the pre-crash state before serving.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 2 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:     opts,
		appendCh: make(chan *commitReq, maxBatchReqs),
		stop:     make(chan struct{}),
		dead:     make(chan struct{}),
		cursors:  make(map[uint8]Cursor),
	}
	maxSeq, err := l.scan()
	if err != nil {
		return nil, err
	}
	if err := l.openSegment(max(maxSeq, l.snapCut) + 1); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// scan inventories the directory: it removes leftover temp files, picks the
// newest snapshot with a valid header, and lists the segments recovery must
// replay. It returns the highest segment sequence present.
func (l *Log) scan() (uint64, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	type seg struct {
		seq  uint64
		path string
	}
	var segs []seg
	var snaps []seg // seq is the snapshot cut
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(l.opts.Dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(path) // incomplete snapshot; never activated
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
				segs = append(segs, seg{seq, path})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if cut, err := strconv.ParseUint(name[5:len(name)-5], 10, 64); err == nil {
				snaps = append(snaps, seg{cut, path})
			}
		}
	}
	// Newest snapshot with a valid header wins; an unreadable one falls
	// back to the next (its covered segments may already be gone, but a
	// partial recovery beats none — and headers are written before rename,
	// so this is a can't-happen guard, not an expected path).
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	for _, s := range snaps {
		if checkHeader(s.path, snapMagic, s.seq) == nil {
			l.snapPath, l.snapCut = s.path, s.seq
			break
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	// A crash during rotation can leave the NEWEST segment with a torn
	// header: openSegment writes header+fsync before the first append, so a
	// header-or-shorter file with a bad header provably holds no durable
	// record — discard it. The size guard matters: bytes PAST the header
	// mean appends once succeeded, so the header was once valid and its
	// damage is real corruption that recovery must refuse (replay fails
	// loudly), never debris to sweep. Deletion (not mere tolerance) also
	// matters: after this restart the file would no longer be final.
	if n := len(segs); n > 0 {
		last := segs[n-1]
		st, err := os.Stat(last.path)
		if err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		if st.Size() <= fileHdrLen &&
			checkHeader(last.path, segMagic, last.seq) != nil {
			if err := os.Remove(last.path); err != nil {
				return 0, fmt.Errorf("wal: %w", err)
			}
			if err := syncDir(l.opts.Dir); err != nil {
				return 0, err
			}
			segs = segs[:n-1]
			l.stats.TornSegments.Add(1)
		}
	}
	var maxSeq uint64
	for _, s := range segs {
		maxSeq = s.seq
		if s.seq >= l.snapCut {
			l.segPaths = append(l.segPaths, s.path)
		}
	}
	return maxSeq, nil
}

// checkHeader validates a file's magic and sequence field.
func checkHeader(path string, magic [8]byte, want uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [fileHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return err
	}
	if [8]byte(hdr[:8]) != magic {
		return fmt.Errorf("wal: %s: bad magic", path)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != want {
		return fmt.Errorf("wal: %s: header seq %d != filename %d", path, got, want)
	}
	return nil
}

// openSegment creates and syncs a fresh active segment.
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.opts.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [fileHdrLen]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.active, l.activePath, l.activeSeq = f, path, seq
	l.activeSize, l.syncedSize = fileHdrLen, fileHdrLen
	l.stats.Segments.Add(1)
	return nil
}

// syncDir flushes directory metadata so created/renamed files survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Stats exposes the log's counters.
func (l *Log) Stats() *Stats { return &l.stats }

// Append makes recs durable per the log's SyncMode before returning.
// Concurrent Appends from different goroutines are coalesced by the
// committer into shared write+fsync batches (group commit).
func (l *Log) Append(recs ...Record) error {
	return l.AppendSynced(recs, nil)
}

// AppendSynced is Append plus a real-fsync notification (see Durability).
func (l *Log) AppendSynced(recs []Record, synced func(error)) error {
	if len(recs) == 0 {
		if synced != nil {
			synced(nil)
		}
		return nil
	}
	f := wire.GetFrame()
	readerRecs := 0
	for i := range recs {
		encodeRecord(&f.Buffer, &recs[i])
		if recs[i].Kind == RecReaders {
			readerRecs++
		}
	}
	req := &commitReq{buf: f, recs: len(recs), readerRecs: readerRecs, synced: synced, done: make(chan error, 1)}
	select {
	case l.appendCh <- req:
	case <-l.stop:
		wire.PutFrame(f)
		return ErrClosed
	}
	return l.wait(req)
}

// AppendAndSync appends recs and blocks until the covering fsync has
// completed regardless of the log's SyncMode. Replication receivers use it:
// the sender retires a batch (and advances its durable cursor) on our ack,
// so the ack must never outrun our own fsync — otherwise a receiver crash
// could lose data the sender will never re-send, and the DCs would diverge.
func AppendAndSync(d Durability, recs []Record) error {
	ch := make(chan error, 1)
	if err := d.AppendSynced(recs, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// AppendCursor persists a replication-cursor update and folds it into the
// in-memory cursor table, which keeps each DC's highest. Cursor loss is
// always safe (the stream re-ships an acknowledged suffix, which receivers
// drop), so callers may ignore the error beyond logging.
func (l *Log) AppendCursor(c Cursor) error {
	l.foldCursor(c)
	l.stats.CursorAppends.Add(1)
	return l.Append(Record{Kind: RecCursor, SrcDC: c.DstDC, TS: c.HighTS})
}

// foldCursor keeps c in the cursor table unless its DC already has a higher
// one.
func (l *Log) foldCursor(c Cursor) {
	l.cursorMu.Lock()
	if prev, ok := l.cursors[c.DstDC]; !ok || c.HighTS >= prev.HighTS {
		l.cursors[c.DstDC] = c
	}
	l.cursorMu.Unlock()
}

// Epoch returns the current restart epoch (0 before any SetEpoch).
func (l *Log) Epoch() uint64 { return l.epoch.Load() }

// SetEpoch durably records a new restart epoch. The record's batch is
// fsynced immediately regardless of SyncMode (see Durability.SetEpoch): an
// epoch a crash could take back would let two incarnations share one epoch
// and blind the ROT fence to restarts between them — and recovery must not
// sit out a background-fsync window to get that guarantee.
func (l *Log) SetEpoch(e uint64) error {
	f := wire.GetFrame()
	r := Record{Kind: RecEpoch, TS: e}
	encodeRecord(&f.Buffer, &r)
	req := &commitReq{buf: f, recs: 1, forceSync: true, done: make(chan error, 1)}
	select {
	case l.appendCh <- req:
	case <-l.stop:
		wire.PutFrame(f)
		return ErrClosed
	}
	if err := l.wait(req); err != nil {
		return err
	}
	if cur := l.epoch.Load(); e > cur {
		l.epoch.Store(e)
	}
	return nil
}

// Cursors returns the current cursor table, sorted by destination DC.
func (l *Log) Cursors() []Cursor {
	l.cursorMu.Lock()
	out := make([]Cursor, 0, len(l.cursors))
	for _, c := range l.cursors {
		out = append(out, c)
	}
	l.cursorMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DstDC < out[j].DstDC })
	return out
}

// wait blocks for req's result, falling back to ErrClosed if the committer
// died without reaching it (a request buffered after the shutdown drain).
func (l *Log) wait(req *commitReq) error {
	select {
	case err := <-req.done:
		return err
	case <-l.dead:
		select {
		case err := <-req.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// rotate asks the committer to seal the active segment and open the next;
// it returns the new active sequence. Every record appended before rotate
// returned lives in a segment below the returned cut.
func (l *Log) rotate() (uint64, error) {
	req := &commitReq{done: make(chan error, 1), rotated: make(chan uint64, 1)}
	select {
	case l.appendCh <- req:
	case <-l.stop:
		return 0, ErrClosed
	}
	if err := l.wait(req); err != nil {
		return 0, err
	}
	return <-req.rotated, nil
}

// run is the committer: it blocks for the first queued request, greedily
// drains everything else already queued, writes the whole batch to the
// active segment, and retires it with a single fsync (SyncAlways) or leaves
// it for the background fsync timer (SyncBackground).
func (l *Log) run() {
	defer l.wg.Done()
	defer close(l.dead)
	var tick <-chan time.Time
	if l.opts.Sync == SyncBackground {
		t := time.NewTicker(l.opts.FsyncEvery)
		defer t.Stop()
		tick = t.C
	}
	batch := make([]*commitReq, 0, maxBatchReqs)
	for {
		var req *commitReq
		select {
		case req = <-l.appendCh:
		case <-tick:
			l.backgroundSync()
			continue
		case <-l.stop:
			l.shutdown()
			return
		}
		batch = batch[:0]
		var rot *commitReq
		if req.rotated != nil {
			rot = req
		} else {
			batch = append(batch, req)
		drain:
			for len(batch) < maxBatchReqs {
				select {
				case r := <-l.appendCh:
					if r.rotated != nil {
						rot = r
						break drain
					}
					batch = append(batch, r)
				default:
					break drain
				}
			}
		}
		if len(batch) > 0 {
			l.commit(batch)
		}
		if rot != nil {
			err := l.broken
			if err == nil {
				err = l.rotateSegment()
				if err != nil {
					l.broken = fmt.Errorf("wal: log poisoned by earlier failure: %w", err)
				}
			}
			if err == nil {
				rot.rotated <- l.activeSeq
			}
			rot.done <- err
		}
	}
}

// commit writes one group-commit batch. Under SyncAlways it retires the
// whole batch with a single fsync; under SyncBackground the records are
// acknowledged as written and their synced callbacks queue for the next
// background fsync.
func (l *Log) commit(batch []*commitReq) {
	err := l.broken
	if err == nil && l.activeSize >= l.opts.SegmentBytes {
		err = l.rotateSegment()
	}
	recs, readerRecs, bytes := 0, 0, 0
	force := false
	for _, r := range batch {
		if err == nil {
			var n int
			n, err = l.active.Write(r.buf.B)
			l.activeSize += int64(n)
			recs += r.recs
			readerRecs += r.readerRecs
			bytes += n
		}
		force = force || r.forceSync
		wire.PutFrame(r.buf)
		r.buf = nil
	}
	synced := l.opts.Sync == SyncAlways || force
	if err == nil && synced {
		err = l.fsync()
	}
	if err != nil && l.broken == nil {
		l.broken = fmt.Errorf("wal: log poisoned by earlier failure: %w", err)
	}
	if err == nil {
		l.stats.Appends.Add(uint64(recs))
		l.stats.ReaderRecords.Add(uint64(readerRecs))
		l.stats.AppendBytes.Add(uint64(bytes))
		// Pulse the gauge by the batch size so its high-water mark records
		// the largest group commit (committer-only, so pulses never overlap).
		l.stats.Batch.Add(int64(recs))
		l.stats.Batch.Add(-int64(recs))
	}
	for _, r := range batch {
		if r.synced != nil {
			if err != nil || synced {
				// Failure, or the batch fsync above already covered it.
				r.synced(err)
			} else {
				l.pendingSynced = append(l.pendingSynced, r.synced)
			}
		}
		r.done <- err
	}
}

// fsync flushes the active segment, records the covered size, and fires
// every pending synced callback in log order.
func (l *Log) fsync() error {
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.firePending(err)
		return err
	}
	l.stats.FsyncDelay.Record(time.Since(start))
	l.syncedSize = l.activeSize
	l.stats.Fsyncs.Add(1)
	l.firePending(nil)
	return nil
}

// firePending drains the pendingSynced callbacks with err.
func (l *Log) firePending(err error) {
	for _, fn := range l.pendingSynced {
		fn(err)
	}
	l.pendingSynced = l.pendingSynced[:0]
}

// backgroundSync is the SyncBackground timer body: flush anything written
// since the last fsync.
func (l *Log) backgroundSync() {
	if l.broken != nil {
		l.firePending(l.broken)
		return
	}
	if l.syncedSize == l.activeSize && len(l.pendingSynced) == 0 {
		return
	}
	if err := l.fsync(); err != nil && l.broken == nil {
		l.broken = fmt.Errorf("wal: log poisoned by earlier failure: %w", err)
	}
}

// rotateSegment seals the active segment and opens the next one. The seal
// fsync covers every record written so far, so pending callbacks fire.
func (l *Log) rotateSegment() error {
	dirty := l.syncedSize < l.activeSize || len(l.pendingSynced) > 0
	if err := l.active.Sync(); err != nil {
		l.firePending(err)
		return fmt.Errorf("wal: %w", err)
	}
	l.syncedSize = l.activeSize
	if dirty {
		l.stats.Fsyncs.Add(1)
	}
	l.firePending(nil)
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.openSegment(l.activeSeq + 1)
}

// shutdown closes the active segment — syncing it first unless this is a
// Crash(), whose whole point is to lose the unsynced window — then fails
// whatever is still queued.
func (l *Log) shutdown() {
	if l.crashed.Load() {
		l.firePending(ErrClosed)
	} else {
		dirty := l.syncedSize < l.activeSize || len(l.pendingSynced) > 0
		if l.broken == nil && l.active.Sync() == nil {
			l.syncedSize = l.activeSize
			if dirty {
				l.stats.Fsyncs.Add(1)
			}
			l.firePending(nil)
		} else {
			l.firePending(ErrClosed)
		}
	}
	l.active.Close()
	for {
		select {
		case r := <-l.appendCh:
			if r.buf != nil {
				wire.PutFrame(r.buf)
			}
			if r.synced != nil {
				r.synced(ErrClosed)
			}
			r.done <- ErrClosed
		default:
			return
		}
	}
}

// Close flushes the log and stops its goroutines. Appends in flight either
// complete durably or report ErrClosed.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
	return nil
}

// Crash is the fault-injection shutdown: it stops the log WITHOUT the final
// fsync and truncates the active segment back to the last fsync-covered
// offset, discarding the same bytes a power cut would take from the kernel
// page cache. Under SyncAlways every acknowledged append survives; under
// SyncBackground up to one FsyncEvery window of acknowledged appends is
// lost — exactly the documented contract. Tests use it as the in-process
// kill -9.
func (l *Log) Crash() error {
	l.crashed.Store(true)
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
	if err := os.Truncate(l.activePath, l.syncedSize); err != nil {
		return fmt.Errorf("wal: crash truncate: %w", err)
	}
	return nil
}

// Replay streams every recovered record to apply: the newest valid snapshot
// first (one record per key), then the sealed segments in order. A torn
// final record — a short or CRC-failing tail of the last segment — ends the
// replay silently; the same damage anywhere else is reported as ErrCorrupt.
func (l *Log) Replay(apply func(Record) error) error {
	start := time.Now()
	defer func() { l.stats.RecoveryNanos.Add(uint64(time.Since(start))) }()
	if l.snapPath != "" {
		if err := l.replayFile(l.snapPath, snapMagic, l.snapCut, false, apply); err != nil {
			return err
		}
	}
	for i, p := range l.segPaths {
		final := i == len(l.segPaths)-1
		base := filepath.Base(p)
		seq, _ := strconv.ParseUint(base[4:len(base)-4], 10, 64)
		if err := l.replayFile(p, segMagic, seq, final, apply); err != nil {
			return err
		}
	}
	return nil
}

// replayFile replays one segment or snapshot. tolerateTail permits a
// truncated or corrupt trailing record (the final segment only).
func (l *Log) replayFile(path string, magic [8]byte, seq uint64, tolerateTail bool, apply func(Record) error) error {
	if err := checkHeader(path, magic, seq); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if _, err := br.Discard(fileHdrLen); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	torn := func() error {
		if tolerateTail {
			l.stats.TornTails.Add(1)
			return nil
		}
		return fmt.Errorf("%w (%s)", ErrCorrupt, path)
	}
	var hdr [recHdrLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return torn() // short header: torn mid-write
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if size > maxRecordLen {
			return torn() // garbage length: torn header
		}
		body := wire.GetFrameLen(int(size))
		if _, err := io.ReadFull(br, body.B); err != nil {
			wire.PutFrame(body)
			return torn()
		}
		if crc32.Checksum(body.B, crcTable) != sum {
			wire.PutFrame(body)
			return torn()
		}
		rec, derr := decodeRecord(body.B)
		wire.PutFrame(body)
		if derr != nil {
			// The CRC passed, so this is structural corruption (or a format
			// bug), not a torn write; never skip it silently.
			return fmt.Errorf("%w (%s): %v", ErrCorrupt, path, derr)
		}
		if rec.Kind == RecCursor {
			// Replication cursors are the log's own state, not the store's:
			// fold into the table (max by HighTS — snapshot entries replay
			// before newer segment entries) instead of handing to apply.
			l.foldCursor(Cursor{DstDC: rec.SrcDC, HighTS: rec.TS})
			l.stats.CursorsRecovered.Add(1)
			continue
		}
		if rec.Kind == RecEpoch {
			// Restart epochs are log-owned state too: fold the max (replay
			// is single-goroutine, so Load+Store does not race).
			if rec.TS > l.epoch.Load() {
				l.epoch.Store(rec.TS)
			}
			continue
		}
		if err := apply(rec); err != nil {
			return err
		}
		l.stats.RecoveredRecords.Add(1)
	}
}

// SetSnapshotSource registers the store serializer and, if periodic
// snapshots are configured, starts the snapshot loop.
func (l *Log) SetSnapshotSource(src SnapshotSource) {
	l.srcMu.Lock()
	defer l.srcMu.Unlock()
	l.src = src
	if src != nil && l.opts.SnapshotEvery > 0 && !l.looped {
		l.looped = true
		l.wg.Add(1)
		go l.snapshotLoop()
	}
}

func (l *Log) snapshotLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if err := l.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
				l.stats.SnapshotErrors.Add(1)
			}
		}
	}
}

// Snapshot serializes the registered source into a new snapshot file and
// truncates the segments (and older snapshots) it supersedes. The cut is a
// fresh segment sealed just before serialization starts: because every
// record is installed in the store before its Append returns, the store at
// that point is a superset of every sealed segment, so replaying snapshot
// + remaining segments reconstructs the full durable state.
func (l *Log) Snapshot() error {
	l.srcMu.Lock()
	src := l.src
	l.srcMu.Unlock()
	if src == nil {
		return errNoSource
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	cut, err := l.rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.opts.Dir, snapName(cut)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [fileHdrLen]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], cut)
	_, err = bw.Write(hdr[:])
	recs := uint64(0)
	if err == nil {
		frame := wire.GetFrame()
		err = src(func(rec Record) error {
			frame.B = frame.B[:0]
			encodeRecord(&frame.Buffer, &rec)
			recs++
			_, werr := bw.Write(frame.B)
			return werr
		})
		if err == nil {
			// The snapshot supersedes sealed segments, so it must carry the
			// cursor table those segments held: the current table is at
			// least as fresh as any cursor record below the cut (newer ones
			// live in the active segment and replay after).
			for _, c := range l.Cursors() {
				frame.B = frame.B[:0]
				encodeRecord(&frame.Buffer, &Record{Kind: RecCursor, SrcDC: c.DstDC, TS: c.HighTS})
				recs++
				if _, werr := bw.Write(frame.B); werr != nil {
					err = werr
					break
				}
			}
		}
		if err == nil {
			// Same story for the restart epoch: its record may live only in
			// a sealed segment the snapshot is about to truncate.
			if e := l.epoch.Load(); e > 0 {
				frame.B = frame.B[:0]
				encodeRecord(&frame.Buffer, &Record{Kind: RecEpoch, TS: e})
				recs++
				if _, werr := bw.Write(frame.B); werr != nil {
					err = werr
				}
			}
		}
		wire.PutFrame(frame)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.opts.Dir, snapName(cut))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		return err
	}
	l.stats.Snapshots.Add(1)
	l.stats.SnapshotRecords.Add(recs)
	l.truncate(cut)
	return nil
}

// truncate removes segments and snapshots superseded by a snapshot at cut.
// Best-effort: leftovers are re-deleted by the next truncation.
func (l *Log) truncate(cut uint64) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		var perr error
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			seq, perr = strconv.ParseUint(name[4:len(name)-4], 10, 64)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			seq, perr = strconv.ParseUint(name[5:len(name)-5], 10, 64)
			if seq == cut {
				continue
			}
		default:
			continue
		}
		if perr == nil && seq < cut {
			if os.Remove(filepath.Join(l.opts.Dir, name)) == nil {
				l.stats.Truncated.Add(1)
			}
		}
	}
}

//
// Record codec.
//

// encodeRecord appends rec's framed representation (length, CRC, body) to b.
func encodeRecord(b *wire.Buffer, rec *Record) {
	off := len(b.B)
	b.B = append(b.B, 0, 0, 0, 0, 0, 0, 0, 0)
	b.U8(rec.Kind)
	switch rec.Kind {
	case RecCursor:
		b.U8(rec.SrcDC)
		b.U64(rec.TS)
	case RecEpoch:
		b.U64(rec.TS)
	case RecReaders:
		b.String(rec.Key)
		b.U64(rec.TS)
		b.U8(rec.SrcDC)
		b.Uvarint(uint64(len(rec.Readers)))
		for i := range rec.Readers {
			b.U64(rec.Readers[i].RotID)
			b.U64(rec.Readers[i].T)
		}
	default:
		b.String(rec.Key)
		b.Bytes(rec.Value)
		b.U64(rec.TS)
		b.U8(rec.SrcDC)
		b.Vec(rec.DV)
		b.Uvarint(uint64(len(rec.Deps)))
		for i := range rec.Deps {
			b.String(rec.Deps[i].Key)
			b.U64(rec.Deps[i].TS)
			b.U8(rec.Deps[i].Src)
		}
	}
	body := b.B[off+recHdrLen:]
	binary.LittleEndian.PutUint32(b.B[off:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b.B[off+4:], crc32.Checksum(body, crcTable))
}

// decodeRecord parses one record body (the CRC has already been verified).
func decodeRecord(body []byte) (Record, error) {
	r := wire.NewReader(body)
	kind := r.U8()
	switch kind {
	case RecCursor:
		rec := Record{Kind: kind, SrcDC: r.U8(), TS: r.U64()}
		return rec, finish(r)
	case RecEpoch:
		rec := Record{Kind: kind, TS: r.U64()}
		return rec, finish(r)
	case RecReaders:
		rec := Record{Kind: kind, Key: r.String(), TS: r.U64(), SrcDC: r.U8()}
		n := r.Uvarint()
		// Each entry is exactly 16 wire bytes; a count the body cannot hold
		// is corruption, caught before the preallocation can balloon.
		if n > uint64(r.Remaining())/16 {
			return Record{}, fmt.Errorf("readers length %d", n)
		}
		if n > 0 && r.Err() == nil {
			rec.Readers = make([]wire.ReaderEntry, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				rec.Readers = append(rec.Readers, wire.ReaderEntry{RotID: r.U64(), T: r.U64()})
			}
		}
		return rec, finish(r)
	case RecInstall:
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", kind)
	}
	rec := Record{
		Key:   r.String(),
		Value: r.Bytes(),
		TS:    r.U64(),
		SrcDC: r.U8(),
		DV:    r.Vec(),
	}
	// A dep is at least 10 wire bytes (1-byte key length + u64 + u8); a
	// count the body cannot hold is corruption, caught before the
	// preallocation can balloon.
	n := r.Uvarint()
	if n > uint64(r.Remaining())/10 {
		return Record{}, fmt.Errorf("deps length %d", n)
	}
	if n > 0 && r.Err() == nil {
		rec.Deps = make([]wire.LoDep, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			rec.Deps = append(rec.Deps, wire.LoDep{Key: r.String(), TS: r.U64(), Src: r.U8()})
		}
	}
	if err := finish(r); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// finish reports a decode error or undrained trailing bytes.
func finish(r *wire.Reader) error {
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	return nil
}
