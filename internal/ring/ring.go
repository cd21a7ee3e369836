// Package ring maps keys to partitions with a deterministic hash, the
// "hash function that deterministically assigns each key to a partition"
// of Section 2.3. FNV-1a is used so clients and servers in different
// processes (TCP deployments) agree without exchanging a seed.
package ring

import "slices"

// Ring assigns keys to n partitions.
type Ring struct{ n int }

// New returns a ring over n partitions. n must be positive.
func New(n int) Ring {
	if n <= 0 {
		panic("ring: non-positive partition count")
	}
	return Ring{n: n}
}

// Parts returns the number of partitions.
func (r Ring) Parts() int { return r.n }

// Owner returns the partition owning key.
func (r Ring) Owner(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(r.n))
}

// Share is the part of a list of items owned by one partition.
type Share[T any] struct {
	Part  int
	Items []T
}

// Key is Split's key function for items that are keys.
func Key(k string) string { return k }

// Split splits items by owning partition, key naming each item's key: one
// share per partition owning at least one item, each listing its items in
// their original order. Shares come in order of first appearance, except
// that partition first's share, when there is one, comes first. A server
// passes its own partition, so the share it settles inline leads; a client
// passes -1, so the first key's owner leads. Either way the order depends on
// the items alone.
func Split[T any](r Ring, items []T, key func(T) string, first int) []Share[T] {
	var shares []Share[T]
	for _, it := range items {
		p := r.Owner(key(it))
		i := slices.IndexFunc(shares, func(s Share[T]) bool { return s.Part == p })
		if i < 0 {
			i = len(shares)
			shares = append(shares, Share[T]{Part: p})
		}
		shares[i].Items = append(shares[i].Items, it)
	}
	if i := slices.IndexFunc(shares, func(s Share[T]) bool { return s.Part == first }); i > 0 {
		own := shares[i]
		copy(shares[1:i+1], shares[:i])
		shares[0] = own
	}
	return shares
}
