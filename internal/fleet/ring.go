// Package fleet turns a set of independent tracexd daemons into one
// signature cache: a consistent-hash ring assigns every signature key an
// owning node, the owner collects it exactly once cluster-wide, and the
// other nodes delegate to the owner instead of re-simulating. The package provides the engine's remote tier
// (tracex.WithRemoteTier), per-peer health tracking with probation, and a
// warm-start replicator that pulls a restarted node's owned keys from its
// peers.
package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Ring is an immutable rendezvous-hash (highest-random-weight) view of the
// fleet membership. Rendezvous hashing is preferred over a ketama-style
// virtual-node circle because it is balanced without tuning (every key
// considers every peer, so no vnode count to size) and exactly minimal on
// membership change: a key moves if and only if the peer joining or leaving
// is its owner. Fleet swaps in a fresh Ring on every peers reload; methods
// never mutate.
type Ring struct {
	peers []string // normalized, deduplicated, sorted
}

// NewRing builds a ring over the given peer URLs. Peers are normalized
// (whitespace and trailing slash trimmed, scheme defaulted to http://),
// deduplicated and sorted, so any ordering of the same membership yields an
// identical ring on every node.
func NewRing(peers []string) *Ring {
	seen := make(map[string]bool, len(peers))
	norm := make([]string, 0, len(peers))
	for _, p := range peers {
		p = NormalizePeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		norm = append(norm, p)
	}
	sort.Strings(norm)
	return &Ring{peers: norm}
}

// NormalizePeer canonicalizes one peer URL: surrounding whitespace and any
// trailing slash are trimmed, and a bare host:port gains the http://
// scheme. Ring identity is the normalized string, so "http://a:1/" and
// "a:1" name the same node.
func NormalizePeer(p string) string {
	p = strings.TrimSpace(p)
	p = strings.TrimRight(p, "/")
	if p == "" {
		return ""
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	return p
}

// Peers returns the normalized, sorted membership. The slice is shared;
// treat it as read-only.
func (r *Ring) Peers() []string { return r.peers }

// Len returns the number of ring members.
func (r *Ring) Len() int { return len(r.peers) }

// Contains reports whether the (normalized) peer is a ring member.
func (r *Ring) Contains(peer string) bool {
	peer = NormalizePeer(peer)
	i := sort.SearchStrings(r.peers, peer)
	return i < len(r.peers) && r.peers[i] == peer
}

// Owner returns the peer that owns key under rendezvous hashing: the member
// with the highest hash of (peer, key), ties broken toward the
// lexicographically smaller peer so every process agrees. An empty ring
// owns nothing ("").
func (r *Ring) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		s := rendezvousScore(p, key)
		if best == "" || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rendezvousScore hashes one (peer, key) pair with FNV-1a 64 — a NUL
// separating the two strings so ("ab","c") and ("a","bc") differ —
// finished with a 64-bit avalanche mix: raw FNV is visibly biased on the
// near-sequential key suffixes real triples produce, and rendezvous
// balance is only as good as the hash's uniformity. The construction is
// fast, dependency-free and stable across architectures, which is all the
// ring needs — ownership must be deterministic across processes, not
// adversary-proof.
func rendezvousScore(peer, key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(peer); i++ {
		h ^= uint64(peer[i])
		h *= fnvPrime64
	}
	h ^= 0 // NUL separator
	h *= fnvPrime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// mix64 is the 64-bit finalizer (fmix64): full avalanche, bijective, so it
// costs nothing in determinism and fixes FNV's low-entropy tail.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// OwnedShare estimates the fraction of the key space owned by self under
// this ring by hashing samples synthetic keys (exact for the 1-peer ring).
// The estimate backs the fleet.ring.owned_share gauge; with a balanced ring
// it approaches 1/Len.
func (r *Ring) OwnedShare(self string, samples int) float64 {
	if r.Len() == 0 {
		return 0
	}
	if r.Len() == 1 {
		if r.peers[0] == NormalizePeer(self) {
			return 1
		}
		return 0
	}
	if samples <= 0 {
		samples = 2048
	}
	self = NormalizePeer(self)
	owned := 0
	for i := 0; i < samples; i++ {
		if r.Owner(fmt.Sprintf("share-sample-%d", i)) == self {
			owned++
		}
	}
	return float64(owned) / float64(samples)
}
