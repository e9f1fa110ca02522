package storage

import (
	"encoding/binary"
	"math/bits"
)

// Partition digests (DESIGN.md §9): every key hashes into one of Leaves
// leaf buckets, and each leaf is the XOR of the hashes of the pairs it
// covers. XOR is commutative and self-inverse, so a store updates a
// leaf in O(1) per mutation — XOR out the old pair, XOR in the new one
// — and the maintained leaves are bit-identical to a rebuild from
// scratch. Replicas compare leaves and transfer only divergent ones.
//
// The functions live here, below both the store that maintains digests
// and the repair code that compares them, so the two cannot drift apart.

// Leaves is the number of leaf buckets in a partition digest. Each
// leaf covers 1/Leaves of the key space, so after a fault a replica
// transfers only the divergent fraction instead of the whole
// partition.
const Leaves = 64

// leafBits is log2(Leaves): the top bits of the mixed key hash select
// the leaf, so leaf membership is uniform and value-independent.
const leafBits = 6

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvBytes is the FNV-1a hash of b continuing from state h
// (dependency-free, stable across processes — replicas must compute
// identical leaves).
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnvString is fnvBytes over a string's bytes without converting it.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finalizer: FNV alone has weak high bits and
// the leaf index comes from the top of the hash.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// LeafOf returns the digest leaf covering key.
func LeafOf(key string) int {
	return int(mix64(fnvString(fnvOffset, key)) >> (64 - leafBits))
}

// DigestVersion is the version of the pair hash this build's digests
// are made of. A digest of another version holds other leaf values for
// the same pairs, so replicas never diff digests of different versions
// (DESIGN.md §9).
const DigestVersion = 2

// The version-2 pair hash reads a pair as one stream, the key bytes and
// then the value bytes, and absorbs it a little-endian 8-byte word per
// step:
//
//	h = absorb(v2Offset, len(key))
//	h = absorb(h, w) for each whole word w of the stream
//	h = absorb(absorb(absorb(h, tail), len(stream)), ver)
//	hash = mix64(h)
//
// where tail is the stream's last len(stream) mod 8 bytes, zero-padded
// to a word. The key length keeps ("ab","c") distinct from ("a","bc"),
// and the stream length keeps a value distinct from itself plus zero
// bytes. The value comes last, so a store keeps the state over the
// stream's whole words (PairWords) and an append continues it over just
// the delta and the old tail; PairSeal reads the tail again from the
// stream.
const (
	v2Offset = 0x27d4eb2f165667c5
	v2Prime1 = 0x9e3779b185ebca87
	v2Prime2 = 0xc2b2ae3d27d4eb4f
	v2Prime4 = 0x85ebca77c2b2ae63
)

// absorb folds one word into a pair-hash state: xxHash64's round and
// merge step.
func absorb(h, w uint64) uint64 {
	h ^= bits.RotateLeft64(w*v2Prime2, 31) * v2Prime1
	return bits.RotateLeft64(h, 27)*v2Prime1 + v2Prime4
}

// PairStart is the version-2 pair-hash state of a pair whose key is
// klen bytes long, before any stream byte.
func PairStart(klen int) uint64 { return absorb(v2Offset, uint64(klen)) }

// PairWords continues the pair-hash state h over the whole 8-byte words
// of b; a tail shorter than a word is left for PairSeal.
func PairWords(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = absorb(h, binary.LittleEndian.Uint64(b))
	}
	return h
}

// PairSeal finishes a pair hash from its state h over the whole words
// of stream (the key bytes, then the value bytes) and its version stamp.
func PairSeal(h uint64, stream []byte, ver uint64) uint64 {
	var tail uint64
	for i := len(stream) - 1; i >= len(stream)&^7; i-- {
		tail = tail<<8 | uint64(stream[i])
	}
	return mix64(absorb(absorb(absorb(h, tail), uint64(len(stream))), ver))
}

// PairHashV2 hashes one versioned pair from scratch: the value a store
// XORs into leaf LeafOf(key) while it holds the pair.
func PairHashV2(key string, val []byte, ver uint64) uint64 {
	stream := append([]byte(key), val...)
	return PairSeal(PairWords(PairStart(len(key)), stream), stream, ver)
}

// PairHashV1 is the version-1 pair hash, the leaves of a peer built
// before DigestVersion 2: FNV-1a, one byte per step, over the key
// length (8 bytes little-endian), the key, the value and then, for a
// non-zero stamp, the stamp (8 bytes little-endian), finished by mix64.
func PairHashV1(key string, val []byte, ver uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(key)))
	h := fnvBytes(fnvString(fnvBytes(fnvOffset, buf[:]), key), val)
	if ver > 0 {
		binary.LittleEndian.PutUint64(buf[:], ver)
		h = fnvBytes(h, buf[:])
	}
	return mix64(h)
}

// DigestOf rebuilds a store's digest leaves from its contents, read
// through its ForEachV method — the reference every maintained digest
// must equal.
func DigestOf(forEachV func(fn func(key string, val []byte, ver uint64) error) error) ([]uint64, error) {
	leaves := make([]uint64, Leaves)
	err := forEachV(func(key string, val []byte, ver uint64) error {
		leaves[LeafOf(key)] ^= PairHashV2(key, val, ver)
		return nil
	})
	return leaves, err
}
