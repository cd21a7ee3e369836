package wire

import (
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

	// Hot request-path messages are pooled on decode the way encode buffers
	// already are (see Pool/Recycle in codec.go). Only messages consumed by
	// server Handle methods qualify: responses are handed to Call waiters,
	// which retain them, and the client-bound one-way messages (RotSnap,
	// RotVals) are retained by client ROT state. Each pooled type's Reset
	// documents which container slices are recycled; everything else a
	// handler might keep (keys, values, vectors, dependency lists) is
	// allocated fresh by every decode.
	Pool(TPutReq)
	Pool(TRotCoordReq)
	Pool(TRotFwd)
	Pool(TRotReadReq)
	Pool(TRepBatch)
	Pool(TVVReport)
	Pool(TGSSBcast)
	Pool(TLoPutReq)
	Pool(TLoRotReq)
	Pool(TOldReadersReq)
	Pool(TLoRepUpdate)
	Pool(TDepCheckReq)
	Pool(TPing)
	Pool(TCopsRotReq)
	Pool(TCopsVerReq)
}

// KV is one read result: a key, the version's value, its timestamp (the
// source-DC timestamp for the timestamp-based engine, the Lamport
// timestamp for CC-LO), and the version's origin DC. (TS, Src) is the
// version's identity: Lamport timestamps collide freely across DCs, so a
// timestamp alone cannot name a version.
type KV struct {
	Key   string
	Value []byte
	TS    uint64
	Src   uint8
}

func encodeKVs(b *Buffer, kvs []KV) {
	b.Uvarint(uint64(len(kvs)))
	for i := range kvs {
		b.String(kvs[i].Key)
		b.Bytes(kvs[i].Value)
		b.U64(kvs[i].TS)
		b.U8(kvs[i].Src)
	}
}

func decodeKVs(r *Reader) []KV {
	n := r.count(11) // two length prefixes, 8 B timestamp, source
	kvs := make([]KV, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		kvs = append(kvs, KV{Key: r.String(), Value: r.Bytes(), TS: r.U64(), Src: r.U8()})
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
	return decodeStringsInto(nil, r)
}

// decodeStringsInto appends the decoded strings to dst[:0], reusing its
// backing array — the capacity-recycling half of message pooling.
func decodeStringsInto(dst []string, r *Reader) []string {
	dst = dst[:0]
	n := r.count(1) // a length prefix
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, r.String())
	}
	return dst
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

// Reset recycles no slices: Value is retained by the store and the
// replication queue, and Deps may be kept as the new version's vector.
func (m *PutReq) Reset() { *m = PutReq{} }

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

// ReadGroup names the keys a single partition must serve for a ROT.
type ReadGroup struct {
	Part uint32
	Keys []string
}

// RotCoordReq asks a coordinator to start a ROT. Mode 1 is the paper's
// 1 1/2-round protocol (Figure 3a): the coordinator forwards reads and
// partitions answer the client directly. Mode 2 is the classic 2-round
// protocol (Figure 3b): the coordinator only returns the snapshot vector.
type RotCoordReq struct {
	RotID     uint64
	Mode      uint8
	SeenLocal uint64
	SeenGSS   vclock.Vec
	Groups    []ReadGroup
}

func (*RotCoordReq) Type() uint16 { return TRotCoordReq }
func (m *RotCoordReq) Encode(b *Buffer) {
	b.U64(m.RotID)
	b.U8(m.Mode)
	b.U64(m.SeenLocal)
	b.Vec(m.SeenGSS)
	b.Uvarint(uint64(len(m.Groups)))
	for i := range m.Groups {
		b.U32(m.Groups[i].Part)
		encodeStrings(b, m.Groups[i].Keys)
	}
}
func (m *RotCoordReq) Decode(r *Reader) {
	m.RotID = r.U64()
	m.Mode = r.U8()
	m.SeenLocal = r.U64()
	m.SeenGSS = r.Vec()
	m.Groups = m.Groups[:0]
	n := r.count(5) // 4 B partition, key count
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Groups = append(m.Groups, ReadGroup{Part: r.U32(), Keys: decodeStrings(r)})
	}
}

// Reset recycles the Groups container (the coordinator forwards the inner
// key slices only through synchronously encoded Sends).
func (m *RotCoordReq) Reset() {
	clear(m.Groups)
	*m = RotCoordReq{Groups: m.Groups[:0]}
}

// RotCoordResp returns the chosen snapshot vector (2-round mode).
type RotCoordResp struct {
	RotID uint64
	SV    vclock.Vec
}

func (*RotCoordResp) Type() uint16 { return TRotCoordResp }
func (m *RotCoordResp) Encode(b *Buffer) {
	b.U64(m.RotID)
	b.Vec(m.SV)
}
func (m *RotCoordResp) Decode(r *Reader) {
	m.RotID = r.U64()
	m.SV = r.Vec()
}

// RotFwd is the coordinator-to-partition leg of the 1 1/2-round protocol.
// Client and Sess together name the client session the partition answers
// directly (Sess is zero for session-less endpoints).
type RotFwd struct {
	RotID  uint64
	Client Addr
	Sess   SessionID
	SV     vclock.Vec
	Keys   []string
}

func (*RotFwd) Type() uint16 { return TRotFwd }
func (m *RotFwd) Encode(b *Buffer) {
	b.U64(m.RotID)
	b.U32(uint32(m.Client))
	b.U32(uint32(m.Sess))
	b.Vec(m.SV)
	encodeStrings(b, m.Keys)
}
func (m *RotFwd) Decode(r *Reader) {
	m.RotID = r.U64()
	m.Client = Addr(r.U32())
	m.Sess = SessionID(r.U32())
	m.SV = r.Vec()
	m.Keys = decodeStringsInto(m.Keys, r)
}

// Reset recycles the Keys container (readAt copies the string headers it
// needs into its reply).
func (m *RotFwd) Reset() {
	clear(m.Keys)
	*m = RotFwd{Keys: m.Keys[:0]}
}

// RotVals is a partition's direct-to-client answer (1 1/2-round mode).
type RotVals struct {
	RotID uint64
	Vals  []KV
}

func (*RotVals) Type() uint16 { return TRotVals }
func (m *RotVals) Encode(b *Buffer) {
	b.U64(m.RotID)
	encodeKVs(b, m.Vals)
}
func (m *RotVals) Decode(r *Reader) {
	m.RotID = r.U64()
	m.Vals = decodeKVs(r)
}

// RotSnap is the coordinator's direct-to-client answer (1 1/2-round mode):
// the snapshot vector plus the coordinator's own keys.
type RotSnap struct {
	RotID uint64
	SV    vclock.Vec
	Vals  []KV
}

func (*RotSnap) Type() uint16 { return TRotSnap }
func (m *RotSnap) Encode(b *Buffer) {
	b.U64(m.RotID)
	b.Vec(m.SV)
	encodeKVs(b, m.Vals)
}
func (m *RotSnap) Decode(r *Reader) {
	m.RotID = r.U64()
	m.SV = r.Vec()
	m.Vals = decodeKVs(r)
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
	m.Keys = decodeStringsInto(m.Keys, r)
}

// Reset recycles the Keys container.
func (m *RotReadReq) Reset() {
	clear(m.Keys)
	*m = RotReadReq{Keys: m.Keys[:0]}
}

// RotReadResp carries the versions read at the requested snapshot.
type RotReadResp struct {
	Vals []KV
}

func (*RotReadResp) Type() uint16       { return TRotReadResp }
func (m *RotReadResp) Encode(b *Buffer) { encodeKVs(b, m.Vals) }
func (m *RotReadResp) Decode(r *Reader) { m.Vals = decodeKVs(r) }

// RotRefused is a partition's refusal to serve a ROT leg: the key's chain
// was trimmed past the snapshot, so the version the snapshot needs is gone.
// In 1 1/2-round mode it replaces the leg's RotSnap or RotVals, routed to
// the client by RotID; in 2-round mode it is the error response to
// RotReadReq (RotID 0). Frontier is the partition's trim frontier: a
// stable vector of the client's own DC, which the client folds into its
// causal context so the retried ROT's snapshot covers what the partition
// retains. It is not pooled — client ROT state retains it.
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
	m.Ups = m.Ups[:0]
	n := r.count(11) // two length prefixes, 8 B timestamp, vector length
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Ups = append(m.Ups, Update{
			Key: r.String(), Value: r.Bytes(), TS: r.U64(), DV: r.Vec(),
		})
	}
}

// Reset recycles the Ups container — the replication hot path — which the
// receiver only iterates, copying each update's fields into its store.
func (m *RepBatch) Reset() {
	clear(m.Ups)
	*m = RepBatch{Ups: m.Ups[:0]}
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
	b.U32(m.Part)
	b.Vec(m.VV)
}
func (m *VVReport) Decode(r *Reader) {
	m.Part = r.U32()
	m.VV = r.Vec()
}

// Reset recycles nothing: the stabilizer retains VV.
func (m *VVReport) Reset() { *m = VVReport{} }

// GSSBcast distributes the freshly aggregated Global Stable Snapshot.
type GSSBcast struct{ GSS vclock.Vec }

func (*GSSBcast) Type() uint16       { return TGSSBcast }
func (m *GSSBcast) Encode(b *Buffer) { b.Vec(m.GSS) }
func (m *GSSBcast) Decode(r *Reader) { m.GSS = r.Vec() }

// Reset recycles nothing (receivers merge GSS entry-wise, but Vec decode
// always allocates fresh).
func (m *GSSBcast) Reset() { *m = GSSBcast{} }

//
// CC-LO (COPS-SNOW).
//

// LoDep is one COPS-style nearest dependency: a key plus the (Lamport
// timestamp, origin DC) identity of the version depended upon. The origin
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
		b.U64(deps[i].TS)
		b.U8(deps[i].Src)
	}
}

func decodeDeps(r *Reader) []LoDep {
	return decodeDepsInto(nil, r)
}

// decodeDepsInto appends the decoded deps to dst[:0], reusing its backing
// array.
func decodeDepsInto(dst []LoDep, r *Reader) []LoDep {
	dst = dst[:0]
	n := r.count(10) // length prefix, 8 B timestamp, source
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, LoDep{Key: r.String(), TS: r.U64(), Src: r.U8()})
	}
	return dst
}

// Epoch vectors: one restart epoch per partition of the serving DC, index
// = partition. A partition's epoch bumps once per crash recovery; servers
// gossip the newest epochs they have heard along readers-check and ROT
// traffic, which is exactly the causal channel a dependent write must have
// used before it could endanger a ROT whose reader records the crash
// destroyed. Clients cross-compare the vectors of a multi-partition ROT's
// legs to detect a restart the ROT straddled.

func encodeEpochs(b *Buffer, es []uint64) {
	b.Uvarint(uint64(len(es)))
	for _, e := range es {
		b.U64(e)
	}
}

// decodeEpochsInto appends the decoded epochs to dst[:0], reusing its
// backing array.
func decodeEpochsInto(dst []uint64, r *Reader) []uint64 {
	dst = dst[:0]
	n := r.count(8) // fixed 8 B
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, r.U64())
	}
	return dst
}

// Reader identifies a ROT that has read a (possibly by now old) version,
// together with the Lamport time of that read. These are the "old readers"
// whose communication Section 6 proves is inherent to latency optimality.
type ReaderEntry struct {
	RotID uint64
	T     uint64
}

// Reader lists travel compactly: a ROT id is the issuing client's address
// (high 32 bits) and that client's ROT sequence number (low 32 bits), and
// sequence numbers and Lamport times are small for most of a deployment's
// life, so each entry is three uvarints — client, sequence, T — instead of
// two fixed 8-byte words (16 B → about 10 B per id). Only OldReadersResp and
// LoRepUpdate use this encoding; the WAL's RecReaders records have their own.

func encodeReaders(b *Buffer, rs []ReaderEntry) {
	b.Uvarint(uint64(len(rs)))
	for i := range rs {
		b.Uvarint(rs[i].RotID >> 32)
		b.Uvarint(rs[i].RotID & 0xFFFFFFFF)
		b.Uvarint(rs[i].T)
	}
}

// ReadersSize returns the number of bytes encodeReaders writes for rs: the
// payload a readers check moves for its answer.
func ReadersSize(rs []ReaderEntry) int {
	n := uvarintLen(uint64(len(rs)))
	for i := range rs {
		n += uvarintLen(rs[i].RotID>>32) + uvarintLen(rs[i].RotID&0xFFFFFFFF) + uvarintLen(rs[i].T)
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func decodeReaders(r *Reader) []ReaderEntry {
	return decodeReadersInto(nil, r)
}

// decodeReadersInto appends the decoded entries to dst[:0], reusing its
// backing array.
func decodeReadersInto(dst []ReaderEntry, r *Reader) []ReaderEntry {
	dst = dst[:0]
	n := r.count(3) // three uvarints
	for i := 0; i < n && r.Err() == nil; i++ {
		client, seq := r.Uvarint(), r.Uvarint()
		if client > 0xFFFFFFFF || seq > 0xFFFFFFFF {
			r.fail(ErrTooLarge)
			return nil
		}
		dst = append(dst, ReaderEntry{RotID: client<<32 | seq, T: r.Uvarint()})
	}
	return dst
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

// Reset recycles nothing: Value is retained by the store and Deps rides
// into the enqueued LoRepUpdate (CC-LO) or the stored version (COPS).
func (m *LoPutReq) Reset() { *m = LoPutReq{} }

// LoPutResp acknowledges a CC-LO PUT with the new version's timestamp.
type LoPutResp struct{ TS uint64 }

func (*LoPutResp) Type() uint16       { return TLoPutResp }
func (m *LoPutResp) Encode(b *Buffer) { b.U64(m.TS) }
func (m *LoPutResp) Decode(r *Reader) { m.TS = r.U64() }

// LoRotReq is CC-LO's one-round read: the client sends it directly to every
// involved partition.
type LoRotReq struct {
	RotID uint64
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
	b.U64(m.RotID)
	b.U64(m.SeenTS)
	encodeEpochs(b, m.Epochs)
	encodeStrings(b, m.Keys)
}
func (m *LoRotReq) Decode(r *Reader) {
	m.RotID = r.U64()
	m.SeenTS = r.U64()
	m.Epochs = decodeEpochsInto(m.Epochs, r)
	m.Keys = decodeStringsInto(m.Keys, r)
}

// Reset recycles the Keys and Epochs containers (the read path copies
// string headers into its synchronously encoded response and folds the
// epochs before returning).
func (m *LoRotReq) Reset() {
	clear(m.Keys)
	*m = LoRotReq{Keys: m.Keys[:0], Epochs: m.Epochs[:0]}
}

// LoRotResp carries CC-LO read results plus the serving partition's epoch
// vector (Epochs[p] is its newest known restart epoch of partition p; its
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
	encodeKVs(b, m.Vals)
	encodeEpochs(b, m.Epochs)
}
func (m *LoRotResp) Decode(r *Reader) {
	m.Vals = decodeKVs(r)
	m.Epochs = decodeEpochsInto(nil, r)
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
	m.Deps = decodeDepsInto(m.Deps, r)
	m.Epochs = decodeEpochsInto(m.Epochs, r)
	m.Await = r.U8() != 0
}

// Reset recycles the Deps and Epochs containers (the readers check only
// scans them).
func (m *OldReadersReq) Reset() {
	clear(m.Deps)
	*m = OldReadersReq{Deps: m.Deps[:0], Epochs: m.Epochs[:0]}
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
	b.U32(m.Cumulative)
	encodeEpochs(b, m.Epochs)
}
func (m *OldReadersResp) Decode(r *Reader) {
	m.Readers = decodeReaders(r)
	m.Cumulative = r.U32()
	m.Epochs = decodeEpochsInto(nil, r)
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
	b.U64(m.TS)
	encodeDeps(b, m.Deps)
	encodeReaders(b, m.OldReaders)
}
func (m *LoRepUpdate) Decode(r *Reader) {
	m.SrcDC = r.U8()
	m.Key = r.String()
	m.Value = r.Bytes()
	m.TS = r.U64()
	m.Deps = decodeDeps(r)
	m.OldReaders = decodeReadersInto(m.OldReaders, r)
}

// Reset recycles the OldReaders container (entries are merged by value);
// Value and Deps are retained by the receiving store, so they are dropped.
func (m *LoRepUpdate) Reset() {
	*m = LoRepUpdate{OldReaders: m.OldReaders[:0]}
}

// DepCheckReq asks whether the receiver has installed every listed version
// — all dependencies of one replicated update that the receiver owns; the
// receiver delays its response until it has (COPS-style dependency
// checking).
type DepCheckReq struct{ Deps []LoDep }

func (*DepCheckReq) Type() uint16       { return TDepCheckReq }
func (m *DepCheckReq) Encode(b *Buffer) { encodeDeps(b, m.Deps) }
func (m *DepCheckReq) Decode(r *Reader) { m.Deps = decodeDepsInto(m.Deps, r) }

// Reset recycles the Deps container (the check only scans it).
func (m *DepCheckReq) Reset() {
	clear(m.Deps)
	*m = DepCheckReq{Deps: m.Deps[:0]}
}

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

// Reset clears the nonce.
func (m *Ping) Reset() { *m = Ping{} }

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
// Echo carries the request's correlation id. It is deliberately NOT pooled:
// Call waiters and client ROT state retain it past the handler's return.
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
// gaps (Figure 1: "Y1 depends on X1").
type DepKV struct {
	KV   KV
	Deps []LoDep
}

// CopsRotReq is the first round of a COPS read-only transaction.
type CopsRotReq struct{ Keys []string }

func (*CopsRotReq) Type() uint16       { return TCopsRotReq }
func (m *CopsRotReq) Encode(b *Buffer) { encodeStrings(b, m.Keys) }
func (m *CopsRotReq) Decode(r *Reader) { m.Keys = decodeStringsInto(m.Keys, r) }

// Reset recycles the Keys container.
func (m *CopsRotReq) Reset() {
	clear(m.Keys)
	*m = CopsRotReq{Keys: m.Keys[:0]}
}

// CopsRotResp returns the latest versions plus their dependency lists.
type CopsRotResp struct{ Vals []DepKV }

func (*CopsRotResp) Type() uint16 { return TCopsRotResp }
func (m *CopsRotResp) Encode(b *Buffer) {
	b.Uvarint(uint64(len(m.Vals)))
	for i := range m.Vals {
		b.String(m.Vals[i].KV.Key)
		b.Bytes(m.Vals[i].KV.Value)
		b.U64(m.Vals[i].KV.TS)
		b.U8(m.Vals[i].KV.Src)
		encodeDeps(b, m.Vals[i].Deps)
	}
}
func (m *CopsRotResp) Decode(r *Reader) {
	n := r.count(12) // a KV (11 B at least) and a dependency count
	m.Vals = make([]DepKV, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Vals = append(m.Vals, DepKV{
			KV:   KV{Key: r.String(), Value: r.Bytes(), TS: r.U64(), Src: r.U8()},
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
	b.U64(m.TS)
	b.U8(m.Src)
}
func (m *CopsVerReq) Decode(r *Reader) {
	m.Key = r.String()
	m.TS = r.U64()
	m.Src = r.U8()
}

// Reset clears the scalar fields.
func (m *CopsVerReq) Reset() { *m = CopsVerReq{} }

// CopsVerResp returns the requested version.
type CopsVerResp struct{ Val KV }

func (*CopsVerResp) Type() uint16 { return TCopsVerResp }
func (m *CopsVerResp) Encode(b *Buffer) {
	b.String(m.Val.Key)
	b.Bytes(m.Val.Value)
	b.U64(m.Val.TS)
}
func (m *CopsVerResp) Decode(r *Reader) {
	m.Val = KV{Key: r.String(), Value: r.Bytes(), TS: r.U64()}
}
