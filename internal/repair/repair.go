// Package repair implements the replica anti-entropy subsystem: the
// machinery that turns ZHT's write-time replication fan-out
// (paper §III.J) into eventual byte-identical replicas even after the
// faults internal/chaos injects.
//
// Three cooperating mechanisms meet here (DESIGN.md §9):
//
//   - Partition digests: a 64-leaf XOR Merkle digest over a partition
//     store's contents, maintained by the store itself under its
//     lock (novoht.Store.DigestLeaves; the pair and leaf
//     hashes are storage.PairHashV2 and storage.LeafOf). Two replicas
//     compare digests of one pair-hash version leaf by leaf
//     (DiffLeaves) and transfer only divergent leaves' contents.
//   - The leg queue (LegQueue): one FIFO per destination for every
//     replication leg outside a synchronous round trip. Async legs
//     drain through it; a failed send turns it into a hinted-handoff
//     backlog (bounded, overflow counted) replayed with backoff, in
//     order, once the peer answers again.
//   - Payload codecs for the wire.OpDigest / wire.OpRepairPull
//     messages: digest snapshots, leaf sets, and pair sets.
//
// The package deliberately depends only on internal/storage (the digest
// contract), internal/wire (the envelopes the leg queue carries), and
// internal/metrics; the send policy and anti-entropy loop that drive
// it live in internal/core.
package repair

import (
	"encoding/binary"
	"errors"

	"zht/internal/storage"
)

// DiffLeaves returns the indices where two digest snapshots disagree.
// Snapshots of unequal length diff as fully divergent.
func DiffLeaves(a, b []uint64) []int {
	if len(a) != len(b) {
		all := make([]int, storage.Leaves)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var out []int
	for i := range a {
		if a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
}

// Pair is one key/value pair in a repair-pull payload, with the
// version stamp it is stored under (0 = older than any stamped write).
type Pair struct {
	Key   string
	Value []byte
	Ver   uint64
}

// Codec limits: a repair payload decoded off the wire may be
// attacker-shaped, so counts and lengths are bounded before any
// allocation.
const (
	maxPairs   = 1 << 20
	maxPairLen = 64 << 20
)

var errBadPayload = errors.New("repair: malformed payload")

// EncodeDigest encodes a digest snapshot whose leaves are made of pair
// hashes of version ver (storage.DigestVersion) for an OpDigest
// response. A version-1 payload is the leaf count and the leaves, each
// 8 bytes little-endian. Any later version leads with a zero byte and
// then the version, which a version-1 decoder reads as a leaf count of
// zero and refuses: a build never diffs leaves of a hash it does not
// make.
func EncodeDigest(ver uint64, leaves []uint64) []byte {
	out := make([]byte, 0, 4+8*len(leaves))
	if ver != 1 {
		out = binary.AppendUvarint(append(out, 0), ver)
	}
	out = binary.AppendUvarint(out, uint64(len(leaves)))
	for _, l := range leaves {
		out = binary.LittleEndian.AppendUint64(out, l)
	}
	return out
}

// DecodeDigest decodes an OpDigest response payload: the version of the
// pair hash its leaves are made of, and the storage.Leaves leaves.
func DecodeDigest(b []byte) (ver uint64, leaves []uint64, err error) {
	n, k := binary.Uvarint(b)
	ver = 1
	if k > 0 && n == 0 {
		b = b[k:]
		if ver, k = binary.Uvarint(b); k <= 0 || ver < 2 {
			return 0, nil, errBadPayload
		}
		b = b[k:]
		n, k = binary.Uvarint(b)
	}
	if k <= 0 || n != storage.Leaves || len(b[k:]) != 8*storage.Leaves {
		return 0, nil, errBadPayload
	}
	b = b[k:]
	leaves = make([]uint64, storage.Leaves)
	for i := range leaves {
		leaves[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return ver, leaves, nil
}

// EncodeLeafSet encodes the divergent-leaf list of an OpRepairPull
// request.
func EncodeLeafSet(leaves []int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(leaves)))
	for _, l := range leaves {
		out = binary.AppendUvarint(out, uint64(l))
	}
	return out
}

// DecodeLeafSet decodes an OpRepairPull leaf list.
func DecodeLeafSet(b []byte) ([]int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > storage.Leaves {
		return nil, errBadPayload
	}
	b = b[k:]
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 || l >= storage.Leaves {
			return nil, errBadPayload
		}
		b = b[k:]
		out = append(out, int(l))
	}
	if len(b) != 0 {
		return nil, errBadPayload
	}
	return out, nil
}

// EncodePairs encodes a pair set. The encoding is never empty (the
// count prefix is always present), which is what lets OpRepairPull
// distinguish a push (Value = encoded pairs, possibly zero of them)
// from a pull (Value absent).
func EncodePairs(pairs []Pair) []byte {
	out := binary.AppendUvarint(nil, uint64(len(pairs)))
	for _, p := range pairs {
		out = binary.AppendUvarint(out, uint64(len(p.Key)))
		out = append(out, p.Key...)
		out = binary.AppendUvarint(out, uint64(len(p.Value)))
		out = append(out, p.Value...)
		out = binary.AppendUvarint(out, p.Ver)
	}
	return out
}

// DecodePairs decodes a pair set.
func DecodePairs(b []byte) ([]Pair, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > maxPairs {
		return nil, errBadPayload
	}
	b = b[k:]
	out := make([]Pair, 0, min(int(n), 1024))
	readBlob := func() ([]byte, bool) {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > maxPairLen || uint64(len(b[k:])) < l {
			return nil, false
		}
		blob := b[k : k+int(l)]
		b = b[k+int(l):]
		return blob, true
	}
	for i := uint64(0); i < n; i++ {
		kb, ok := readBlob()
		if !ok {
			return nil, errBadPayload
		}
		vb, ok := readBlob()
		if !ok {
			return nil, errBadPayload
		}
		ver, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errBadPayload
		}
		b = b[k:]
		out = append(out, Pair{Key: string(kb), Value: append([]byte(nil), vb...), Ver: ver})
	}
	if len(b) != 0 {
		return nil, errBadPayload
	}
	return out, nil
}
