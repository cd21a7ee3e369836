// Package vclock provides fixed-width version and dependency vectors.
//
// A Vec has one entry per data center. Contrarian and Cure (internal/core)
// use Vecs for three related purposes described in Section 4 of the paper:
//
//   - VV: a partition's version vector (latest timestamp seen per DC),
//   - GSS: the Global Stable Snapshot, the entry-wise minimum of the VVs of
//     all partitions in a DC,
//   - DV: the dependency vector stored with each item version, and
//   - SV: the snapshot vector assigned to a read-only transaction.
//
// Vecs are plain slices; all operations either mutate the receiver in place
// (MaxInto, MinInto) or allocate (Clone). Callers own their synchronization.
package vclock

import (
	"fmt"
	"strings"
)

// Vec is a vector of timestamps indexed by data-center id.
type Vec []uint64

// New returns a zero vector with n entries.
func New(n int) Vec { return make(Vec, n) }

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	if v == nil {
		return nil
	}
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// MaxInto sets each entry of v to the maximum of v and o.
// Vectors of unequal length are compared over the shorter prefix.
func (v Vec) MaxInto(o Vec) {
	n := min(len(v), len(o))
	for i := 0; i < n; i++ {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// MinInto sets each entry of v to the minimum of v and o.
func (v Vec) MinInto(o Vec) {
	n := min(len(v), len(o))
	for i := 0; i < n; i++ {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
}

// LEQ reports whether v ≤ o entry-wise. Vectors of unequal length are
// compared as if the shorter were zero-extended.
func (v Vec) LEQ(o Vec) bool {
	for i := range v {
		var ov uint64
		if i < len(o) {
			ov = o[i]
		}
		if v[i] > ov {
			return false
		}
	}
	return true
}

// Equal reports whether v and o hold identical entries.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Max returns the largest entry of v, or 0 for an empty vector.
func (v Vec) Max() uint64 {
	var m uint64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest entry of v, or 0 for an empty vector.
func (v Vec) Min() uint64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// String formats v as "[t0 t1 ...]".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}
