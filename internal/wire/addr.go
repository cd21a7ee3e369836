// Package wire defines the binary message format spoken between clients,
// partition servers, and per-DC stabilizers. It plays the role Google
// protobuf plays in the paper's C++ code base: every message crossing the
// (simulated or TCP) network is marshalled through this package, so
// serialization CPU costs are part of what the benchmarks measure.
//
// Two rules keep frames small. A frame carries nothing its receiver already
// knows: no envelope names its destination (the carrier delivering it knows
// it; see Envelope), and read responses are positional — the i-th value
// answers the i-th key of the request, so no value echoes its key back (see
// Label). And a field whose values stay small for a deployment's life — a
// partition index, a count, a restart epoch, a Lamport timestamp, a session,
// a per-session ROT id — is a uvarint, and an address two of them (see
// Buffer.Addr), while hybrid logical clock readings and timestamp vectors
// stay fixed-width: a 62-bit HLC reading would take nine varint bytes.
//
// Only frame buffers are pooled (GetFrame, PutFrame). Every decode returns a
// fresh message that shares no memory with its frame, and it belongs to
// whoever receives it.
package wire

import "fmt"

// Addr is a compact process address.
//
// Layout: bit 31 = server flag, bit 30 = client flag,
// bits 29..16 = data-center id, bits 15..0 = partition index (servers) or
// client id (clients). Partition index 0xFFFF addresses the DC's
// stabilization service.
//
// On the wire an address is two uvarints, role and DC then index (see
// Buffer.Addr), so a small deployment's addresses take 2 B.
//
// Exactly one of the two role bits is set in every valid address, so the
// zero Addr is never a legal endpoint: transports use it as an "unknown
// peer" sentinel (see tcpNode.readLoop) and ClientAddr(0, 0) must not
// collide with it.
type Addr uint32

const (
	serverBit  = 1 << 31
	clientBit  = 1 << 30
	dcMask     = 0x3FFF
	stabilizer = 0xFFFF
)

// Field capacity limits. Code accepting dc/partition/client ids from
// external input (config files, flags) should bound-check against these
// and report an error rather than let the constructors panic.
const (
	MaxDC        = dcMask         // highest data-center id
	MaxPartition = stabilizer - 1 // highest ordinary partition index
	MaxClientID  = 0xFFFF         // highest client id
)

// checkRange panics when v does not fit its address field. Masking out of
// range values instead would silently alias another process's address —
// e.g. dc 16384 wrapping onto dc 0 — which is strictly worse than failing
// at construction time.
func checkRange(what string, v, max int) {
	if v < 0 || v > max {
		panic(fmt.Sprintf("wire: %s %d out of range [0, %d]", what, v, max))
	}
}

// ServerAddr returns the address of partition part in data center dc.
// It panics if dc or part does not fit the address layout; the top index
// is excluded because it addresses the stabilizer, and aliasing it would
// misroute a partition's traffic to the stabilization service.
func ServerAddr(dc, part int) Addr {
	checkRange("dc", dc, MaxDC)
	checkRange("partition", part, MaxPartition)
	return Addr(serverBit | dc<<16 | part)
}

// StabilizerAddr returns the address of dc's stabilization service.
func StabilizerAddr(dc int) Addr {
	checkRange("dc", dc, MaxDC)
	return Addr(serverBit | dc<<16 | stabilizer)
}

// ClientAddr returns the address of client id homed in data center dc.
// It panics if dc or id does not fit the address layout.
func ClientAddr(dc, id int) Addr {
	checkRange("dc", dc, MaxDC)
	checkRange("client id", id, MaxClientID)
	return Addr(clientBit | dc<<16 | id)
}

// DC returns the data-center id of a.
func (a Addr) DC() int { return int(a>>16) & dcMask }

// Index returns the partition index (servers) or client id (clients).
func (a Addr) Index() int { return int(a & 0xFFFF) }

// IsServer reports whether a addresses a partition server or stabilizer.
func (a Addr) IsServer() bool { return a&serverBit != 0 }

// IsClient reports whether a addresses a client.
func (a Addr) IsClient() bool { return a&clientBit != 0 }

// IsStabilizer reports whether a addresses a stabilization service.
func (a Addr) IsStabilizer() bool { return a.IsServer() && a.Index() == stabilizer }

// Valid reports whether a is a well-formed endpoint address. The zero Addr
// (and any value missing a role bit) is invalid by construction.
func (a Addr) Valid() bool { return a&(serverBit|clientBit) != 0 }

// String formats a for logs.
func (a Addr) String() string {
	switch {
	case a.IsStabilizer():
		return fmt.Sprintf("stab(dc%d)", a.DC())
	case a.IsServer():
		return fmt.Sprintf("srv(dc%d,p%d)", a.DC(), a.Index())
	case a.IsClient():
		return fmt.Sprintf("cli(dc%d,%d)", a.DC(), a.Index())
	default:
		return fmt.Sprintf("invalid(%#x)", uint32(a))
	}
}
