// Package mip implements the Mobile IPv6 pieces the experiments stand on:
// a binding cache with lifetimes, the Hierarchical Mobile IPv6 Mobility
// Anchor Point (MAP) that tunnels packets for a Regional Care-of Address
// (RCoA) to the current On-Link Care-of Address (LCoA), and a home agent
// that does the same for home addresses.
package mip

import (
	"repro/internal/inet"
	"repro/internal/sim"
)

// Binding maps an identifying address (home address or RCoA) to the mobile
// host's current care-of address.
type Binding struct {
	// Key is the stable address packets are sent to.
	Key inet.Addr
	// CoA is where packets are tunnelled.
	CoA inet.Addr
	// Expires is the absolute instant the binding lapses.
	Expires sim.Time
	// Seq is the sequence number of the binding update that installed the
	// entry; stale (lower-sequence) updates are rejected.
	Seq uint16
}

// BindingCache is a lifetime-aware binding table. Expiry is lazy: Lookup
// ignores lapsed entries, and Update or Remove replaces or deletes them.
type BindingCache struct {
	entries inet.AddrTable[Binding]
}

// NewBindingCache returns an empty cache.
func NewBindingCache() *BindingCache { return &BindingCache{} }

// Len returns the number of entries, including lapsed ones.
func (c *BindingCache) Len() int { return c.entries.Len() }

// Update installs or refreshes a binding. It returns false when a fresher
// (higher-sequence) binding already exists for the key; equal sequence
// numbers refresh the lifetime, as retransmitted binding updates must.
func (c *BindingCache) Update(key, coa inet.Addr, seq uint16, lifetime, now sim.Time) bool {
	if old, ok := c.entries.Get(key); ok && old.Expires > now && seqLess(seq, old.Seq) {
		return false
	}
	c.entries.Set(key, Binding{Key: key, CoA: coa, Expires: now + lifetime, Seq: seq})
	return true
}

// Lookup returns the live binding for key.
func (c *BindingCache) Lookup(key inet.Addr, now sim.Time) (Binding, bool) {
	b, ok := c.entries.Get(key)
	if !ok || b.Expires <= now {
		return Binding{}, false
	}
	return b, true
}

// Remove deletes a binding (deregistration: a zero-lifetime update).
func (c *BindingCache) Remove(key inet.Addr) { c.entries.Delete(key) }

// seqLess compares binding sequence numbers modulo 2^16 (RFC 3775 §9.5.1
// style serial arithmetic).
func seqLess(a, b uint16) bool {
	return a != b && int16(a-b) < 0
}
