package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"repro/internal/vclock"
)

// Codec errors.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrTooLarge    = errors.New("wire: field exceeds size limit")
	ErrUnknownType = errors.New("wire: unknown message type")
)

// maxFieldLen bounds any single length-prefixed field; it protects decoders
// from corrupt frames.
const maxFieldLen = 1 << 26 // 64 MiB

// Buffer is an append-only encoder.
type Buffer struct{ B []byte }

// U8 appends a byte.
func (b *Buffer) U8(v uint8) { b.B = append(b.B, v) }

// U16 appends a fixed-width 16-bit value.
func (b *Buffer) U16(v uint16) { b.B = binary.LittleEndian.AppendUint16(b.B, v) }

// U32 appends a fixed-width 32-bit value.
func (b *Buffer) U32(v uint32) { b.B = binary.LittleEndian.AppendUint32(b.B, v) }

// U64 appends a fixed-width 64-bit value.
func (b *Buffer) U64(v uint64) { b.B = binary.LittleEndian.AppendUint64(b.B, v) }

// Uvarint appends a variable-width unsigned value.
func (b *Buffer) Uvarint(v uint64) { b.B = binary.AppendUvarint(b.B, v) }

// Addr appends a through the compact address codec: uvarint(role | dc<<2),
// then uvarint(index). In a deployment of fewer than 32 DCs a partition or
// a client below index 128 takes 2 B and the largest index (0xFFFF, a
// stabilizer) 4 B; the fixed layout took 4 B always, and one uvarint of it,
// role bits on top, 5 B. Any 32-bit value round-trips, endpoint or not.
func (b *Buffer) Addr(a Addr) {
	hi, idx := addrParts(a)
	b.Uvarint(hi)
	b.Uvarint(idx)
}

// addrParts splits a into the address codec's two values.
func addrParts(a Addr) (hi, idx uint64) {
	return uint64(a>>30) | uint64(a>>16&dcMask)<<2, uint64(a & 0xFFFF)
}

// Bytes appends a length-prefixed byte slice.
func (b *Buffer) Bytes(v []byte) {
	b.Uvarint(uint64(len(v)))
	b.B = append(b.B, v...)
}

// String appends a length-prefixed string.
func (b *Buffer) String(v string) {
	b.Uvarint(uint64(len(v)))
	b.B = append(b.B, v...)
}

// Vec appends a length-prefixed timestamp vector.
func (b *Buffer) Vec(v vclock.Vec) {
	b.Uvarint(uint64(len(v)))
	for _, x := range v {
		b.U64(x)
	}
}

// Reader is a sticky-error decoder over a byte slice. After the first
// error, every accessor returns a zero value; callers check Err once.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b; decoded
// byte slices are copied out so messages do not alias network buffers.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	s := r.b[r.pos : r.pos+n]
	r.pos += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U16 reads a fixed-width 16-bit value.
func (r *Reader) U16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 reads a fixed-width 32-bit value.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a fixed-width 64-bit value.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// Uvarint reads a variable-width unsigned value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// u32 reads a uvarint that must fit 32 bits (a partition index or a count).
func (r *Reader) u32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrTooLarge)
		return 0
	}
	return uint32(v)
}

// Addr reads an address written by Buffer.Addr. A role-and-DC part above
// 16 bits or an index above 0xFFFF is ErrTooLarge, never wrapped onto
// another process's address.
func (r *Reader) Addr() Addr {
	hi, idx := r.Uvarint(), r.Uvarint()
	if hi > 0xFFFF || idx > 0xFFFF {
		r.fail(ErrTooLarge)
		return 0
	}
	return Addr(hi&3)<<30 | Addr(hi>>2)<<16 | Addr(idx)
}

func (r *Reader) length() int {
	n := r.Uvarint()
	if n > maxFieldLen {
		r.fail(ErrTooLarge)
		return 0
	}
	return int(n)
}

// count reads the element count of a list whose elements each encode to at
// least min bytes. Counts are wire input and size allocations, so one the
// unread bytes cannot hold fails here, as the short frame it is, before
// anything is sized by it: allocation stays proportional to frame length.
func (r *Reader) count(min int) int {
	n := r.length()
	if n > r.Remaining()/min {
		r.fail(ErrTruncated)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice into fresh storage. Zero-length
// fields decode as nil: the wire format does not distinguish empty from
// absent values (callers signal presence separately, e.g. via KV.TS).
func (r *Reader) Bytes() []byte {
	n := r.length()
	if n == 0 {
		return nil
	}
	s := r.take(n)
	if s == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, s)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Vec reads a length-prefixed timestamp vector.
func (r *Reader) Vec() vclock.Vec {
	n := r.count(8)
	if n > 1<<16 {
		r.fail(ErrTooLarge)
	}
	if r.err != nil {
		return nil
	}
	v := make(vclock.Vec, n)
	for i := range v {
		v[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return v
}

// Message is a unit of communication. Implementations register themselves
// via Register in their init functions.
type Message interface {
	// Type identifies the concrete message on the wire.
	Type() uint16
	// Encode appends the message body to b.
	Encode(b *Buffer)
	// Decode parses the message body from r.
	Decode(r *Reader)
}

// NumTypes bounds message type identifiers: every type is below it.
const NumTypes = 256

var registry [NumTypes]func() Message

// Register records the factory for message type t. It panics on duplicate
// registration; call it from init only.
func Register(t uint16, fn func() Message) {
	if int(t) >= len(registry) {
		panic(fmt.Sprintf("wire: message type %d out of range", t))
	}
	if registry[t] != nil {
		panic(fmt.Sprintf("wire: duplicate message type %d", t))
	}
	registry[t] = fn
}

// Types returns every registered message type, in ascending order.
func Types() []uint16 {
	var ts []uint16
	for t, fn := range registry {
		if fn != nil {
			ts = append(ts, uint16(t))
		}
	}
	return ts
}

// TypeName returns the Go name of message type t ("RotVals"), or its number
// when t is not registered.
func TypeName(t uint16) string {
	if int(t) >= len(registry) || registry[t] == nil {
		return strconv.Itoa(int(t))
	}
	return reflect.Indirect(reflect.ValueOf(registry[t]())).Type().Name()
}

// New instantiates an empty message of type t.
func New(t uint16) (Message, error) {
	if int(t) >= len(registry) || registry[t] == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	return registry[t](), nil
}

// Recycle does nothing: a decoded message belongs to whoever receives it.
// It stays only because the frozen layer benchmark (benchmark/layers.go)
// calls it after each decode.
func Recycle(Message) {}

// Envelope wraps a message with routing and correlation metadata.
//
// Dst is the carrier's: a sender sets it to route the frame, but it is not
// encoded, because the receiver is the destination — on Local the link the
// frame travels is keyed by it, on TCP it is the node whose socket read the
// frame. DecodeEnvelope leaves Dst zero and the receiving carrier stamps
// its own address.
type Envelope struct {
	Src   Addr
	Dst   Addr
	ReqID uint64 // nonzero for request/response pairs
	Resp  bool   // true when this is a response to ReqID
	// Session is the client-side session the frame belongs to, whichever
	// direction it travels: the source session on client→server frames,
	// the destination session on server→client frames. Zero (intra-cluster
	// traffic, session-less endpoints) is omitted from the encoding, so
	// such frames carry no session overhead at all.
	Session SessionID
	Msg     Message
}

// Envelope appends the wire representation of e (header and message body,
// no length prefix) to b. The header is the message type (one byte: every
// type is below NumTypes), a flags byte, Src through the address codec,
// the session as a uvarint when the flags say there is one, and the
// request id as a uvarint. Dst is not written (see Envelope).
//
// Encoding through an already-heap-resident Buffer (e.g. a pooled
// FrameBuf) keeps the hot path allocation-free; the b-by-value wrapper
// EncodeEnvelope pays one escape allocation for the Buffer itself.
func (b *Buffer) Envelope(e *Envelope) {
	b.U8(uint8(e.Msg.Type()))
	var flags uint8
	if e.Resp {
		flags |= 1
	}
	if e.Session != 0 {
		flags |= 2
	}
	b.U8(flags)
	b.Addr(e.Src)
	if e.Session != 0 {
		b.Uvarint(uint64(e.Session))
	}
	b.Uvarint(e.ReqID)
	e.Msg.Encode(b)
}

// EncodeEnvelope appends the full framed representation of e to buf and
// returns the extended slice.
func EncodeEnvelope(buf []byte, e *Envelope) []byte {
	b := Buffer{B: buf}
	b.Envelope(e)
	return b.B
}

// DecodeEnvelope parses an envelope from p. Dst is left zero for the
// receiving carrier to stamp.
func DecodeEnvelope(p []byte) (*Envelope, error) {
	r := NewReader(p)
	t := uint16(r.U8())
	flags := r.U8()
	src := r.Addr()
	var sess SessionID
	if flags&2 != 0 {
		sess = SessionID(r.u32())
	}
	reqID := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	m, err := New(t)
	if err != nil {
		return nil, err
	}
	m.Decode(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("decoding type %d: %w", t, r.Err())
	}
	return &Envelope{
		Src:     src,
		ReqID:   reqID,
		Resp:    flags&1 != 0,
		Session: sess,
		Msg:     m,
	}, nil
}
