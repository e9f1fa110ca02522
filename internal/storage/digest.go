package storage

import "encoding/binary"

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

// FNV is the FNV-1a hash of b continuing from state h
// (dependency-free, stable across processes — replicas must compute
// identical digests).
func FNV(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnvString is FNV over a string's bytes without converting it.
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

// PairPrefix is the FNV state of a pair hash after its key: the key
// length (8 bytes little-endian) and then the key bytes. The length
// prefix keeps ("ab","c") distinct from ("a","bc"). Continue it over
// the value with FNV, then seal it with PairSeal; because the value
// comes last, an append continues the state over just the delta.
func PairPrefix(key string) uint64 {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(key)))
	return fnvString(FNV(fnvOffset, lenBuf[:]), key)
}

// PairSeal finishes a pair hash from its FNV state over key and value.
// The version stamp is part of the digest so two replicas holding
// equal bytes under different versions still read as divergent (a
// later LWW compare would resolve them differently); version 0 adds
// nothing, so digests over never-versioned stores are unchanged.
func PairSeal(fh, ver uint64) uint64 {
	if ver > 0 {
		var verBuf [8]byte
		binary.LittleEndian.PutUint64(verBuf[:], ver)
		fh = FNV(fh, verBuf[:])
	}
	return mix64(fh)
}

// PairHashV hashes one versioned pair from scratch: the value a store
// XORs into leaf LeafOf(key) while it holds the pair.
func PairHashV(key string, val []byte, ver uint64) uint64 {
	return PairSeal(FNV(PairPrefix(key), val), ver)
}

// DigestOf rebuilds a store's digest leaves from its contents, read
// through its ForEachV method — the reference every maintained digest
// must equal.
func DigestOf(forEachV func(fn func(key string, val []byte, ver uint64) error) error) ([]uint64, error) {
	leaves := make([]uint64, Leaves)
	err := forEachV(func(key string, val []byte, ver uint64) error {
		leaves[LeafOf(key)] ^= PairHashV(key, val, ver)
		return nil
	})
	return leaves, err
}
