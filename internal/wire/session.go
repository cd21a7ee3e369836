package wire

import "fmt"

// SessionID identifies one logical client session multiplexed over a
// shared transport endpoint. The high half is the tenant (the admission
// gate's fairness unit), the low half a tenant-local session number.
//
// The zero SessionID means "no session": intra-cluster traffic and bare
// client endpoints (hand-rolled probes; protocol clients are sessions)
// never carry one, and the codec omits the field entirely for them, so
// pre-session frames and session-less frames are byte-identical. MakeSession therefore rejects (0, 0); give the first
// session of tenant 0 a nonzero local id.
type SessionID uint32

// MakeSession builds a session id from a tenant and a tenant-local session
// number. It panics on (0, 0), which would alias the "no session" sentinel.
func MakeSession(tenant, local uint16) SessionID {
	if tenant == 0 && local == 0 {
		panic("wire: session (0, 0) is the no-session sentinel")
	}
	return SessionID(uint32(tenant)<<16 | uint32(local))
}

// Tenant returns the session's tenant (0 for the no-session sentinel, so
// session-less senders all land in tenant 0).
func (s SessionID) Tenant() uint16 { return uint16(s >> 16) }

// Local returns the tenant-local session number.
func (s SessionID) Local() uint16 { return uint16(s) }

// String formats s for logs.
func (s SessionID) String() string {
	if s == 0 {
		return "sess(none)"
	}
	return fmt.Sprintf("sess(t%d,%d)", s.Tenant(), s.Local())
}

// From names the full origin — or, symmetrically, the full destination —
// of a client-path frame: the transport endpoint plus the logical session
// on it. Handlers receive one and pass it back to Respond/SendTo
// unchanged, which is what routes a reply to the right session of a
// multiplexed endpoint. Sess is zero for intra-cluster traffic.
type From struct {
	Addr Addr
	Sess SessionID
}

// At wraps a bare address as a session-less From (intra-cluster
// destinations, bare client endpoints).
func At(a Addr) From { return From{Addr: a} }

// String formats f for logs.
func (f From) String() string {
	if f.Sess == 0 {
		return f.Addr.String()
	}
	return f.Addr.String() + "/" + f.Sess.String()
}
