package wire

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/vclock"
)

// Message type identifiers. The 1–19 range belongs to the timestamp-based
// engine (Contrarian/Cure), 20–39 to CC-LO (COPS-SNOW), 40+ to generic
// infrastructure.
const (
	TPutReq       = 1
	TPutResp      = 2
	TRotCoordReq  = 3
	TRotCoordResp = 4
	TRotFwd       = 5
	TRotVals      = 6
	TRotSnap      = 7
	TRotReadReq   = 8
	TRotReadResp  = 9
	TRepBatch     = 10
	TRepAck       = 11
	TVVReport     = 12
	TGSSBcast     = 13
	TRotRefused   = 14

	TLoPutReq       = 20
	TLoPutResp      = 21
	TLoRotReq       = 22
	TLoRotResp      = 23
	TOldReadersReq  = 24
	TOldReadersResp = 25
	TLoRepUpdate    = 26
	TDepCheckReq    = 28
	TDepCheckResp   = 29

	TErrorResp = 40
	TPing      = 41
	TPong      = 42
	TBusy      = 43

	TCopsRotReq  = 50
	TCopsRotResp = 51
	TCopsVerReq  = 52
	TCopsVerResp = 53
)

func init() {
	Register(TPutReq, func() Message { return new(PutReq) })
	Register(TPutResp, func() Message { return new(PutResp) })
	Register(TRotCoordReq, func() Message { return new(RotCoordReq) })
	Register(TRotCoordResp, func() Message { return new(RotCoordResp) })
	Register(TRotFwd, func() Message { return new(RotFwd) })
	Register(TRotVals, func() Message { return new(RotVals) })
	Register(TRotSnap, func() Message { return new(RotSnap) })
	Register(TRotReadReq, func() Message { return new(RotReadReq) })
	Register(TRotReadResp, func() Message { return new(RotReadResp) })
	Register(TRepBatch, func() Message { return new(RepBatch) })
	Register(TRepAck, func() Message { return new(RepAck) })
	Register(TVVReport, func() Message { return new(VVReport) })
	Register(TGSSBcast, func() Message { return new(GSSBcast) })
	Register(TRotRefused, func() Message { return new(RotRefused) })

	Register(TLoPutReq, func() Message { return new(LoPutReq) })
	Register(TLoPutResp, func() Message { return new(LoPutResp) })
	Register(TLoRotReq, func() Message { return new(LoRotReq) })
	Register(TLoRotResp, func() Message { return new(LoRotResp) })
	Register(TOldReadersReq, func() Message { return new(OldReadersReq) })
	Register(TOldReadersResp, func() Message { return new(OldReadersResp) })
	Register(TLoRepUpdate, func() Message { return new(LoRepUpdate) })
	Register(TDepCheckReq, func() Message { return new(DepCheckReq) })
	Register(TDepCheckResp, func() Message { return new(DepCheckResp) })

	Register(TCopsRotReq, func() Message { return new(CopsRotReq) })
	Register(TCopsRotResp, func() Message { return new(CopsRotResp) })
	Register(TCopsVerReq, func() Message { return new(CopsVerReq) })
	Register(TCopsVerResp, func() Message { return new(CopsVerResp) })

	Register(TErrorResp, func() Message { return new(ErrorResp) })
	Register(TPing, func() Message { return new(Ping) })
	Register(TPong, func() Message { return new(Pong) })
	Register(TBusy, func() Message { return new(Busy) })
}

// KV is one read result: a key, the version's value, its timestamp (the
// source-DC timestamp for the timestamp-based engine, the Lamport
// timestamp for CC-LO), and the version's origin DC. (TS, Src) is the
// version's identity: Lamport timestamps collide freely across DCs, so a
// timestamp alone cannot name a version.
//
// Key never travels: read responses are positional (see Label), and a
// decoded KV's Key is empty until the client labels it.
type KV struct {
	Key   string
	Value []byte
	TS    uint64
	Src   uint8
}

// ErrValCount is a read response whose value count differs from its
// request's key count: its values cannot be matched to keys, so the read
// attempt fails rather than return a mislabelled result.
var ErrValCount = errors.New("wire: read response value count differs from its key count")

// Label files a positional read response's values in into under the keys
// of the request they answer, in order, or fails with ErrValCount when the
// counts differ.
func Label(into map[string]KV, keys []string, vals []KV) error {
	if err := CheckCount(len(keys), len(vals)); err != nil {
		return err
	}
	for i, kv := range vals {
		kv.Key = keys[i]
		into[kv.Key] = kv
	}
	return nil
}

// CheckCount returns ErrValCount unless a response of vals values can answer
// a request of keys keys.
func CheckCount(keys, vals int) error {
	if keys != vals {
		return fmt.Errorf("%w: %d values for %d keys", ErrValCount, vals, keys)
	}
	return nil
}

// encodeVals writes read results without their keys: the value, its 8 B
// timestamp (an HLC reading in Contrarian and Cure) and its origin DC.
func encodeVals(b *Buffer, kvs []KV) {
	b.Uvarint(uint64(len(kvs)))
	for i := range kvs {
		b.Bytes(kvs[i].Value)
		b.U64(kvs[i].TS)
		b.U8(kvs[i].Src)
	}
}

func decodeVals(r *Reader) []KV {
	n := r.count(10) // a length prefix, 8 B timestamp, source
	kvs := make([]KV, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		kvs = append(kvs, KV{Value: r.Bytes(), TS: r.U64(), Src: r.U8()})
	}
	return kvs
}

func encodeStrings(b *Buffer, ss []string) {
	b.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
}

func decodeStrings(r *Reader) []string {
	n := r.count(1) // a length prefix
	ss := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ss = append(ss, r.String())
	}
	return ss
}

//
// Timestamp-based engine (Contrarian / Cure).
//

// PutReq installs a new version of Key. Deps is the client's causal view
// ("seen" vector): one entry per DC; the local entry is the highest local
// timestamp the client has observed, remote entries its GSS view.
type PutReq struct {
	Key   string
	Value []byte
	Deps  vclock.Vec
}

func (*PutReq) Type() uint16 { return TPutReq }
func (m *PutReq) Encode(b *Buffer) {
	b.String(m.Key)
	b.Bytes(m.Value)
	b.Vec(m.Deps)
}
func (m *PutReq) Decode(r *Reader) {
	m.Key = r.String()
	m.Value = r.Bytes()
	m.Deps = r.Vec()
}

// PutResp acknowledges a PUT with the new version's timestamp and the
// partition's current GSS so the client's causal view stays fresh.
type PutResp struct {
	TS  uint64
	GSS vclock.Vec
}

func (*PutResp) Type() uint16 { return TPutResp }
func (m *PutResp) Encode(b *Buffer) {
	b.U64(m.TS)
	b.Vec(m.GSS)
}
func (m *PutResp) Decode(r *Reader) {
	m.TS = r.U64()
	m.GSS = r.Vec()
}

// ReadGroup names the keys a single partition must serve for a ROT. Part
// travels as a uvarint.
type ReadGroup struct {
	Part uint32
	Keys []string
}

// RotCoordReq asks a coordinator to start a ROT. Mode 1 is the paper's
// 1 1/2-round protocol (Figure 3a): the coordinator forwards reads and
// partitions answer the client directly. Mode 2 is the classic 2-round
// protocol (Figure 3b): the coordinator only returns the snapshot vector.
//
// SeenGSS is the session's whole causal context: its entry for the
// coordinator's DC is the highest local timestamp the session has seen
// (its own PUTs included), the others its GSS view. RotID is a per-session
// counter, so it and every reply that echoes it carry it as a uvarint.
type RotCoordReq struct {
	RotID   uint64
	Mode    uint8
	SeenGSS vclock.Vec
	Groups  []ReadGroup
}

func (*RotCoordReq) Type() uint16 { return TRotCoordReq }
func (m *RotCoordReq) Encode(b *Buffer) {
	b.Uvarint(m.RotID)
	b.U8(m.Mode)
	b.Vec(m.SeenGSS)
	b.Uvarint(uint64(len(m.Groups)))
	for i := range m.Groups {
		b.Uvarint(uint64(m.Groups[i].Part))
		encodeStrings(b, m.Groups[i].Keys)
	}
}
func (m *RotCoordReq) Decode(r *Reader) {
	m.RotID = r.Uvarint()
	m.Mode = r.U8()
	m.SeenGSS = r.Vec()
	n := r.count(2) // partition, key count
	m.Groups = make([]ReadGroup, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Groups = append(m.Groups, ReadGroup{Part: r.u32(), Keys: decodeStrings(r)})
	}
}

// RotCoordResp returns the chosen snapshot vector (2-round mode).
type RotCoordResp struct {
	RotID uint64
	SV    vclock.Vec
}

func (*RotCoordResp) Type() uint16 { return TRotCoordResp }
func (m *RotCoordResp) Encode(b *Buffer) {
	b.Uvarint(m.RotID)
	b.Vec(m.SV)
}
func (m *RotCoordResp) Decode(r *Reader) {
	m.RotID = r.Uvarint()
	m.SV = r.Vec()
}

// RotFwd is the coordinator-to-partition leg of the 1 1/2-round protocol.
// Client and Sess together name the client session the partition answers
// directly (Sess is zero for session-less endpoints); they travel through
// the address codec and as a uvarint, as the envelope's Src and Session do.
type RotFwd struct {
	RotID  uint64
	Client Addr
	Sess   SessionID
	SV     vclock.Vec
	Keys   []string
}

func (*RotFwd) Type() uint16 { return TRotFwd }
func (m *RotFwd) Encode(b *Buffer) {
	b.Uvarint(m.RotID)
	b.Addr(m.Client)
	b.Uvarint(uint64(m.Sess))
	b.Vec(m.SV)
	encodeStrings(b, m.Keys)
}
func (m *RotFwd) Decode(r *Reader) {
	m.RotID = r.Uvarint()
	m.Client = r.Addr()
	m.Sess = SessionID(r.u32())
	m.SV = r.Vec()
	m.Keys = decodeStrings(r)
}

// RotVals is a partition's direct-to-client answer (1 1/2-round mode). Part
// names the answering partition, so the client can match Vals to the keys of
// that partition's ReadGroup.
type RotVals struct {
	RotID uint64
	Part  uint32
	Vals  []KV
}

func (*RotVals) Type() uint16 { return TRotVals }
func (m *RotVals) Encode(b *Buffer) {
	b.Uvarint(m.RotID)
	b.Uvarint(uint64(m.Part))
	encodeVals(b, m.Vals)
}
func (m *RotVals) Decode(r *Reader) {
	m.RotID = r.Uvarint()
	m.Part = r.u32()
	m.Vals = decodeVals(r)
}

// RotSnap is the coordinator's direct-to-client answer (1 1/2-round mode):
// the snapshot vector plus the values of the coordinator's own keys, the
// request's first ReadGroup.
type RotSnap struct {
	RotID uint64
	SV    vclock.Vec
	Vals  []KV
}

func (*RotSnap) Type() uint16 { return TRotSnap }
func (m *RotSnap) Encode(b *Buffer) {
	b.Uvarint(m.RotID)
	b.Vec(m.SV)
	encodeVals(b, m.Vals)
}
func (m *RotSnap) Decode(r *Reader) {
	m.RotID = r.Uvarint()
	m.SV = r.Vec()
	m.Vals = decodeVals(r)
}

// RotReadReq reads Keys at snapshot SV (2-round mode, second round).
type RotReadReq struct {
	SV   vclock.Vec
	Keys []string
}

func (*RotReadReq) Type() uint16 { return TRotReadReq }
func (m *RotReadReq) Encode(b *Buffer) {
	b.Vec(m.SV)
	encodeStrings(b, m.Keys)
}
func (m *RotReadReq) Decode(r *Reader) {
	m.SV = r.Vec()
	m.Keys = decodeStrings(r)
}

// RotReadResp carries the versions read at the requested snapshot, in the
// order of the request's keys.
type RotReadResp struct {
	Vals []KV
}

func (*RotReadResp) Type() uint16       { return TRotReadResp }
func (m *RotReadResp) Encode(b *Buffer) { encodeVals(b, m.Vals) }
func (m *RotReadResp) Decode(r *Reader) { m.Vals = decodeVals(r) }

// RotRefused is a partition's refusal to serve a ROT leg: the key's chain
// was trimmed past the snapshot, so the version the snapshot needs is gone.
// In 1 1/2-round mode it replaces the leg's RotSnap or RotVals, routed to
// the client by RotID; in 2-round mode it is the error response to
// RotReadReq (RotID 0). Frontier is the partition's trim frontier: a
// stable vector of the client's own DC, which the client folds into its
// causal context so the retried ROT's snapshot covers what the partition
// retains. Refusals are rare, so its RotID stays a fixed 8 B.
type RotRefused struct {
	RotID    uint64
	Frontier vclock.Vec
}

func (*RotRefused) Type() uint16 { return TRotRefused }
func (m *RotRefused) Encode(b *Buffer) {
	b.U64(m.RotID)
	b.Vec(m.Frontier)
}
func (m *RotRefused) Decode(r *Reader) {
	m.RotID = r.U64()
	m.Frontier = r.Vec()
}

// Error makes RotRefused returnable as a Call error (transport.unwrapResp).
func (m *RotRefused) Error() string { return "snapshot too old: its version was trimmed" }

// Update is one replicated version inside a RepBatch.
type Update struct {
	Key   string
	Value []byte
	TS    uint64
	DV    vclock.Vec
}

// RepBatch ships a sequence of versions from a partition to its replica in
// another DC. HighTS is the sender's replication cut: every version of the
// sender with a timestamp at or below it is in this or an earlier batch. It
// is the batch's only identity; an empty batch with a fresh HighTS is a
// replication heartbeat keeping the receiver's VV (and hence the GSS)
// moving.
type RepBatch struct {
	SrcDC  uint8
	HighTS uint64
	Ups    []Update
}

func (*RepBatch) Type() uint16 { return TRepBatch }
func (m *RepBatch) Encode(b *Buffer) {
	b.U8(m.SrcDC)
	b.U64(m.HighTS)
	b.Uvarint(uint64(len(m.Ups)))
	for i := range m.Ups {
		b.String(m.Ups[i].Key)
		b.Bytes(m.Ups[i].Value)
		b.U64(m.Ups[i].TS)
		b.Vec(m.Ups[i].DV)
	}
}
func (m *RepBatch) Decode(r *Reader) {
	m.SrcDC = r.U8()
	m.HighTS = r.U64()
	n := r.count(11) // two length prefixes, 8 B timestamp, vector length
	m.Ups = make([]Update, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Ups = append(m.Ups, Update{
			Key: r.String(), Value: r.Bytes(), TS: r.U64(), DV: r.Vec(),
		})
	}
}

// RepAck acknowledges replicated data on either stream: a RepBatch or a
// LoRepUpdate. Each stream's sender knows which message it is waiting on,
// so the ack carries nothing.
type RepAck struct{}

func (*RepAck) Type() uint16   { return TRepAck }
func (*RepAck) Encode(*Buffer) {}
func (*RepAck) Decode(*Reader) {}

// VVReport is a partition's periodic version-vector report to the
// stabilization service.
type VVReport struct {
	Part uint32
	VV   vclock.Vec
}

func (*VVReport) Type() uint16 { return TVVReport }
func (m *VVReport) Encode(b *Buffer) {
	b.Uvarint(uint64(m.Part))
	b.Vec(m.VV)
}
func (m *VVReport) Decode(r *Reader) {
	m.Part = r.u32()
	m.VV = r.Vec()
}

// GSSBcast distributes the freshly aggregated Global Stable Snapshot.
type GSSBcast struct{ GSS vclock.Vec }

func (*GSSBcast) Type() uint16       { return TGSSBcast }
func (m *GSSBcast) Encode(b *Buffer) { b.Vec(m.GSS) }
func (m *GSSBcast) Decode(r *Reader) { m.GSS = r.Vec() }

//
// CC-LO (COPS-SNOW).
//

// LoDep is one COPS-style nearest dependency: a key plus the (Lamport
// timestamp, origin DC) identity of the version depended upon. TS travels as
// a uvarint, as every Lamport timestamp does. The origin
// DC matters: Lamport timestamps collide across DCs, and a dependency
// check satisfied by a same-timestamp version from the wrong DC would
// break the causal install order.
type LoDep struct {
	Key string
	TS  uint64
	Src uint8
}

func encodeDeps(b *Buffer, deps []LoDep) {
	b.Uvarint(uint64(len(deps)))
	for i := range deps {
		b.String(deps[i].Key)
		b.Uvarint(deps[i].TS)
		b.U8(deps[i].Src)
	}
}

func decodeDeps(r *Reader) []LoDep {
	n := r.count(3) // length prefix, timestamp, source
	deps := make([]LoDep, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		deps = append(deps, LoDep{Key: r.String(), TS: r.Uvarint(), Src: r.U8()})
	}
	return deps
}

// Epoch vectors: one restart epoch per partition of the serving DC, index
// = partition. A partition's epoch bumps once per crash recovery; servers
// gossip the newest epochs they have heard along readers-check and ROT
// traffic, which is exactly the causal channel a dependent write must have
// used before it could endanger a ROT whose reader records the crash
// destroyed. Clients cross-compare the vectors of a multi-partition ROT's
// legs to detect a restart the ROT straddled. Epochs count restarts, so each
// is a uvarint: one byte for a partition's first 127 recoveries.

func encodeEpochs(b *Buffer, es []uint64) {
	b.Uvarint(uint64(len(es)))
	for _, e := range es {
		b.Uvarint(e)
	}
}

func decodeEpochs(r *Reader) []uint64 {
	n := r.count(1) // a uvarint
	es := make([]uint64, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		es = append(es, r.Uvarint())
	}
	return es
}

// Reader identifies a ROT that has read a (possibly by now old) version,
// together with the Lamport time of that read. These are the "old readers"
// whose communication Section 6 proves is inherent to latency optimality.
type ReaderEntry struct {
	RotID uint64
	T     uint64
}

// A CC-LO ROT id is the issuing client's address (high 32 bits) and that
// client's ROT sequence number (low 32 bits). It travels as the address
// through the address codec, then the sequence as a uvarint: about 4 B
// where two fixed words took 8 B. LoRotReq and reader lists use it.

func (b *Buffer) loRotID(id uint64) {
	b.Addr(Addr(id >> 32))
	b.Uvarint(id & 0xFFFFFFFF)
}

// loRotID reads a CC-LO ROT id; a sequence past 32 bits is ErrTooLarge,
// never folded into the address half.
func (r *Reader) loRotID() uint64 {
	a := r.Addr()
	return uint64(a)<<32 | uint64(r.u32())
}

func loRotIDLen(id uint64) int {
	hi, idx := addrParts(Addr(id >> 32))
	return uvarintLen(hi) + uvarintLen(idx) + uvarintLen(id&0xFFFFFFFF)
}

// Reader lists travel compactly: sequence numbers and Lamport times are
// small for most of a deployment's life, so each entry is the ROT id in its
// compact form and T as a uvarint. Only OldReadersResp and LoRepUpdate use
// this encoding; the WAL's RecReaders records have their own.

func encodeReaders(b *Buffer, rs []ReaderEntry) {
	b.Uvarint(uint64(len(rs)))
	for i := range rs {
		b.loRotID(rs[i].RotID)
		b.Uvarint(rs[i].T)
	}
}

// ReadersSize returns the number of bytes encodeReaders writes for rs: the
// payload a readers check moves for its answer.
func ReadersSize(rs []ReaderEntry) int {
	n := uvarintLen(uint64(len(rs)))
	for i := range rs {
		n += loRotIDLen(rs[i].RotID) + uvarintLen(rs[i].T)
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func decodeReaders(r *Reader) []ReaderEntry {
	n := r.count(4) // a two-byte address, sequence, T
	rs := make([]ReaderEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.loRotID()
		if r.Err() != nil {
			return nil
		}
		rs = append(rs, ReaderEntry{RotID: id, T: r.Uvarint()})
	}
	return rs
}

// LoPutReq installs a new version of Key in CC-LO. Deps carries the
// client's nearest dependencies; the receiving partition runs the readers
// check against every dependency's partition before installing.
type LoPutReq struct {
	Key   string
	Value []byte
	Deps  []LoDep
}

func (*LoPutReq) Type() uint16 { return TLoPutReq }
func (m *LoPutReq) Encode(b *Buffer) {
	b.String(m.Key)
	b.Bytes(m.Value)
	encodeDeps(b, m.Deps)
}
func (m *LoPutReq) Decode(r *Reader) {
	m.Key = r.String()
	m.Value = r.Bytes()
	m.Deps = decodeDeps(r)
}

// LoPutResp acknowledges a CC-LO PUT with the new version's Lamport
// timestamp.
type LoPutResp struct{ TS uint64 }

func (*LoPutResp) Type() uint16       { return TLoPutResp }
func (m *LoPutResp) Encode(b *Buffer) { b.Uvarint(m.TS) }
func (m *LoPutResp) Decode(r *Reader) { m.TS = r.Uvarint() }

// LoRotReq is CC-LO's one-round read: the client sends it directly to every
// involved partition.
type LoRotReq struct {
	RotID uint64 // client address and sequence, in the compact form (loRotID)
	// SeenTS is the session's Lamport high-water mark (the newest timestamp
	// it has observed through reads and put acks). The serving partition
	// folds it into its clock before assigning read times, so a recorded
	// old-reader entry is never below state the session already saw — the
	// rewind a later dependent write triggers can then never serve this
	// session something older than its own past.
	SeenTS uint64
	// Epochs is the client's current view of the DC's per-partition restart
	// epochs (possibly empty); the serving partition folds it into its own
	// vector, so fence knowledge gossips both ways.
	Epochs []uint64
	Keys   []string
}

func (*LoRotReq) Type() uint16 { return TLoRotReq }
func (m *LoRotReq) Encode(b *Buffer) {
	b.loRotID(m.RotID)
	b.Uvarint(m.SeenTS)
	encodeEpochs(b, m.Epochs)
	encodeStrings(b, m.Keys)
}
func (m *LoRotReq) Decode(r *Reader) {
	m.RotID = r.loRotID()
	m.SeenTS = r.Uvarint()
	m.Epochs = decodeEpochs(r)
	m.Keys = decodeStrings(r)
}

// LoRotResp carries CC-LO read results, in the order of the request's keys,
// plus the serving partition's epoch vector (Epochs[p] is its newest known restart epoch of partition p; its
// own entry is authoritative). The client's fence cross-compares the
// vectors of a multi-partition ROT's legs: a leg that knows a newer epoch
// of partition p than p's own leg reported proves p restarted while the
// ROT was in flight, so its reader records — the ROT's rewind protection —
// may be gone and the ROT retries.
type LoRotResp struct {
	Vals   []KV
	Epochs []uint64
}

func (*LoRotResp) Type() uint16 { return TLoRotResp }
func (m *LoRotResp) Encode(b *Buffer) {
	encodeVals(b, m.Vals)
	encodeEpochs(b, m.Epochs)
}
func (m *LoRotResp) Decode(r *Reader) {
	m.Vals = decodeVals(r)
	m.Epochs = decodeEpochs(r)
}

// OldReadersReq is the readers check: it asks a partition for the old
// readers of each listed dependency. Epochs carries the requester's epoch
// vector so restart knowledge propagates along the check. Await marks the
// check of a replicated update: the receiver answers only once every listed
// version is installed there, so the one round is the update's dependency
// check as well. A client PUT's dependencies were observed in this DC, so
// they are installed already and its check does not wait.
type OldReadersReq struct {
	Deps   []LoDep
	Epochs []uint64
	Await  bool
}

func (*OldReadersReq) Type() uint16 { return TOldReadersReq }
func (m *OldReadersReq) Encode(b *Buffer) {
	encodeDeps(b, m.Deps)
	encodeEpochs(b, m.Epochs)
	var await uint8
	if m.Await {
		await = 1
	}
	b.U8(await)
}
func (m *OldReadersReq) Decode(r *Reader) {
	m.Deps = decodeDeps(r)
	m.Epochs = decodeEpochs(r)
	m.Await = r.U8() != 0
}

// OldReadersResp returns the collected old readers. Cumulative counts the
// entries before the at-most-one-per-client filter so benchmarks can report
// both series of Figure 6. Epochs is the responder's epoch vector: the
// requester folds it into its own BEFORE installing the version being
// checked, which is what makes a restarted partition's new epoch reach
// every version that could have skipped its lost reader records — and from
// there, any ROT leg that serves such a version.
type OldReadersResp struct {
	Readers    []ReaderEntry
	Cumulative uint32
	Epochs     []uint64
}

func (*OldReadersResp) Type() uint16 { return TOldReadersResp }
func (m *OldReadersResp) Encode(b *Buffer) {
	encodeReaders(b, m.Readers)
	b.Uvarint(uint64(m.Cumulative))
	encodeEpochs(b, m.Epochs)
}
func (m *OldReadersResp) Decode(r *Reader) {
	m.Readers = decodeReaders(r)
	m.Cumulative = r.u32()
	m.Epochs = decodeEpochs(r)
}

// LoRepUpdate replicates one CC-LO version with its dependency list and the
// old readers gathered at the origin DC; the receiver performs its own
// dependency check and readers check before install.
type LoRepUpdate struct {
	SrcDC      uint8
	Key        string
	Value      []byte
	TS         uint64
	Deps       []LoDep
	OldReaders []ReaderEntry
}

func (*LoRepUpdate) Type() uint16 { return TLoRepUpdate }
func (m *LoRepUpdate) Encode(b *Buffer) {
	b.U8(m.SrcDC)
	b.String(m.Key)
	b.Bytes(m.Value)
	b.Uvarint(m.TS)
	encodeDeps(b, m.Deps)
	encodeReaders(b, m.OldReaders)
}
func (m *LoRepUpdate) Decode(r *Reader) {
	m.SrcDC = r.U8()
	m.Key = r.String()
	m.Value = r.Bytes()
	m.TS = r.Uvarint()
	m.Deps = decodeDeps(r)
	m.OldReaders = decodeReaders(r)
}

// DepCheckReq asks whether the receiver has installed every listed version
// — all dependencies of one replicated update that the receiver owns; the
// receiver delays its response until it has (COPS-style dependency
// checking).
type DepCheckReq struct{ Deps []LoDep }

func (*DepCheckReq) Type() uint16       { return TDepCheckReq }
func (m *DepCheckReq) Encode(b *Buffer) { encodeDeps(b, m.Deps) }
func (m *DepCheckReq) Decode(r *Reader) { m.Deps = decodeDeps(r) }

// DepCheckResp signals every listed dependency is present.
type DepCheckResp struct{}

func (*DepCheckResp) Type() uint16   { return TDepCheckResp }
func (*DepCheckResp) Encode(*Buffer) {}
func (*DepCheckResp) Decode(*Reader) {}

//
// Infrastructure.
//

// ErrorResp reports a server-side failure to a caller.
type ErrorResp struct {
	Code uint16
	Text string
}

func (*ErrorResp) Type() uint16 { return TErrorResp }
func (m *ErrorResp) Encode(b *Buffer) {
	b.U16(m.Code)
	b.String(m.Text)
}
func (m *ErrorResp) Decode(r *Reader) {
	m.Code = r.U16()
	m.Text = r.String()
}

func (m *ErrorResp) Error() string { return m.Text }

// Ping is a liveness probe.
type Ping struct{ Nonce uint64 }

func (*Ping) Type() uint16       { return TPing }
func (m *Ping) Encode(b *Buffer) { b.U64(m.Nonce) }
func (m *Ping) Decode(r *Reader) { m.Nonce = r.U64() }

// Pong answers a Ping.
type Pong struct{ Nonce uint64 }

func (*Pong) Type() uint16       { return TPong }
func (m *Pong) Encode(b *Buffer) { b.U64(m.Nonce) }
func (m *Pong) Decode(r *Reader) { m.Nonce = r.U64() }

// Busy is the typed shed response of the transport's admission gate: the
// server declined to run a client request and the client should retry after
// roughly the carried hint (with its own jitter). For Call-style requests it
// travels as the response envelope; for one-way correlated requests (the
// 1 1/2-round ROT's coordinator leg) it travels as a one-way message whose
// Echo carries the request's correlation id.
type Busy struct {
	// Echo is the shed request's correlation id (Correlated.CorrelationID)
	// when the request was one-way; 0 for reqID-matched responses.
	Echo uint64
	// RetryAfterMicros is the server's backoff hint in microseconds.
	RetryAfterMicros uint32
}

func (*Busy) Type() uint16 { return TBusy }
func (m *Busy) Encode(b *Buffer) {
	b.U64(m.Echo)
	b.U32(m.RetryAfterMicros)
}
func (m *Busy) Decode(r *Reader) {
	m.Echo = r.U64()
	m.RetryAfterMicros = r.U32()
}

// Error makes Busy returnable as a Call error (transport.unwrapResp).
func (m *Busy) Error() string { return "server busy, retry later" }

// RetryAfter returns the backoff hint as a duration.
func (m *Busy) RetryAfter() time.Duration {
	return time.Duration(m.RetryAfterMicros) * time.Microsecond
}

// Correlated is implemented by one-way request messages that carry their
// own correlation id. The admission gate uses it to shed such requests with
// an addressable Busy: there is no reqID to respond to, so the Busy's Echo
// carries this id and the client routes it like the direct server-to-client
// messages the request would have produced.
type Correlated interface {
	CorrelationID() uint64
}

// CorrelationID makes the 1 1/2-round ROT's one-way coordinator request
// sheddable (the Busy's Echo routes to the client's waiting ROT by RotID).
func (m *RotCoordReq) CorrelationID() uint64 { return m.RotID }

//
// COPS (two-round, two-version ROTs; §3 of the paper).
//

// DepKV is a read result together with the version's nearest dependencies;
// COPS' first ROT round returns these so the client can detect snapshot
// gaps (Figure 1: "Y1 depends on X1"). On the wire it is positional like a
// KV, with a uvarint Lamport timestamp.
type DepKV struct {
	KV   KV
	Deps []LoDep
}

// CopsRotReq is the first round of a COPS read-only transaction.
type CopsRotReq struct{ Keys []string }

func (*CopsRotReq) Type() uint16       { return TCopsRotReq }
func (m *CopsRotReq) Encode(b *Buffer) { encodeStrings(b, m.Keys) }
func (m *CopsRotReq) Decode(r *Reader) { m.Keys = decodeStrings(r) }

// CopsRotResp returns the latest versions plus their dependency lists, in
// the order of the request's keys.
type CopsRotResp struct{ Vals []DepKV }

func (*CopsRotResp) Type() uint16 { return TCopsRotResp }
func (m *CopsRotResp) Encode(b *Buffer) {
	b.Uvarint(uint64(len(m.Vals)))
	for i := range m.Vals {
		b.Bytes(m.Vals[i].KV.Value)
		b.Uvarint(m.Vals[i].KV.TS)
		b.U8(m.Vals[i].KV.Src)
		encodeDeps(b, m.Vals[i].Deps)
	}
}
func (m *CopsRotResp) Decode(r *Reader) {
	n := r.count(4) // a length prefix, timestamp, source, dependency count
	m.Vals = make([]DepKV, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Vals = append(m.Vals, DepKV{
			KV:   KV{Value: r.Bytes(), TS: r.Uvarint(), Src: r.U8()},
			Deps: decodeDeps(r),
		})
	}
}

// CopsVerReq is the second ROT round: fetch the specific version (TS, Src)
// of Key (the causal cut computed from the first round's dependencies).
type CopsVerReq struct {
	Key string
	TS  uint64
	Src uint8
}

func (*CopsVerReq) Type() uint16 { return TCopsVerReq }
func (m *CopsVerReq) Encode(b *Buffer) {
	b.String(m.Key)
	b.Uvarint(m.TS)
	b.U8(m.Src)
}
func (m *CopsVerReq) Decode(r *Reader) {
	m.Key = r.String()
	m.TS = r.Uvarint()
	m.Src = r.U8()
}

// CopsVerResp returns the requested version (TS 0: the partition holds
// nothing at or above it). The client knows the key it asked for, so the key
// does not travel back; the identity does, since a trimmed version's
// retained successor stands in for it.
type CopsVerResp struct{ Val KV }

func (*CopsVerResp) Type() uint16 { return TCopsVerResp }
func (m *CopsVerResp) Encode(b *Buffer) {
	b.Bytes(m.Val.Value)
	b.Uvarint(m.Val.TS)
	b.U8(m.Val.Src)
}
func (m *CopsVerResp) Decode(r *Reader) {
	m.Val = KV{Value: r.Bytes(), TS: r.Uvarint(), Src: r.U8()}
}
