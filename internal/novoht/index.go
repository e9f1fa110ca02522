package novoht

import (
	"encoding/binary"
	"hash/maphash"
	"unsafe"

	"zht/internal/storage"
)

// A cell is the record of one stored pair, in one allocation:
//
//	[ver 8][off 8][fh 8][klen 4][key][value]
//
// ver is the HLC version stamp (0 = older than any stamped write). off
// is the log offset of the value bytes of the log record holding the
// pair's last full image (0 for a value built only from appends); a
// clean copies the cells whose image lies in the frozen file. fh is the
// pair's digest hash state over the whole words of its stream, the key
// and then the value (storage.PairWords from storage.PairStart); the
// pair hash seals it with the stream's tail and the version. The fields
// are little-endian.
//
// A cell holds no Go pointers, so the GC marks it without scanning it.
// Its key bytes never change once written: an overwrite rewrites the
// value in place when it fits the cell's capacity and otherwise moves
// the pair to a new cell, leaving the old one as it was. So a key
// string that aliases a cell (cell.key) stays valid after the store's
// lock is released.
//
// A tombstone (Store.BuryV) is a cell of a key and a stamp with no
// value whose off is tombOff: it has no log record, and no share in the
// digest, so its fh is unused.
type cell []byte

const (
	cellVer  = 0
	cellOff  = 8
	cellFH   = 16
	cellKLen = 24
	cellHdr  = 28

	tombOff = -1 // a tombstone's off
)

// newCell allocates a cell holding key and val with a zero header but
// for its key length.
func newCell(key string, val []byte) cell {
	p := allocCell(cellHdr + len(key) + len(val))
	binary.LittleEndian.PutUint32(p[cellKLen:], uint32(len(key)))
	copy(p[cellHdr:], key)
	copy(p[cellHdr+len(key):], val)
	return p
}

// allocCell allocates a zeroed cell of n bytes. Its capacity is n
// rounded up to 16 bytes, which never passes the allocator's size class
// for an object of n bytes (every class from 32 bytes up is a multiple
// of 16), so a slightly longer later value still fits in place for
// free.
func allocCell(n int) cell { return make(cell, n, (n+15)&^15) }

// newTomb allocates a tombstone of key stamped ver.
func newTomb(key string, ver uint64) cell {
	p := newCell(key, nil)
	p.setVer(ver)
	p.setOff(tombOff)
	return p
}

func (p cell) tomb() bool { return p.off() == tombOff }

func (p cell) ver() uint64 { return binary.LittleEndian.Uint64(p[cellVer:]) }
func (p cell) off() int64  { return int64(binary.LittleEndian.Uint64(p[cellOff:])) }
func (p cell) fh() uint64  { return binary.LittleEndian.Uint64(p[cellFH:]) }
func (p cell) klen() int   { return int(binary.LittleEndian.Uint32(p[cellKLen:])) }

func (p cell) setVer(v uint64) { binary.LittleEndian.PutUint64(p[cellVer:], v) }
func (p cell) setOff(o int64)  { binary.LittleEndian.PutUint64(p[cellOff:], uint64(o)) }
func (p cell) setFH(h uint64)  { binary.LittleEndian.PutUint64(p[cellFH:], h) }

// key returns the pair's key as a string aliasing the cell, which the
// key bytes never changing makes safe to keep.
func (p cell) key() string {
	return unsafe.String(unsafe.SliceData(p[cellHdr:]), p.klen())
}

// val returns the pair's value, aliasing the cell: a caller that keeps
// it past the store's lock must copy it.
func (p cell) val() []byte { return p[cellHdr+p.klen():] }

// stream returns the pair's key and value bytes, the stream its digest
// hash reads.
func (p cell) stream() []byte { return p[cellHdr:] }

// pairHash is the pair's digest hash (storage.PairHashV2), sealed from
// its cached state.
func (p cell) pairHash() uint64 { return storage.PairSeal(p.fh(), p.stream(), p.ver()) }

// withVal returns the cell with its value replaced by val: p itself
// when val fits its capacity, else a new cell with p's header and key.
func (p cell) withVal(val []byte) cell {
	n := cellHdr + p.klen()
	if n+len(val) <= cap(p) {
		p = p[:n+len(val)]
		copy(p[n:], val)
		return p
	}
	q := allocCell(n + len(val))
	copy(q, p[:n])
	copy(q[n:], val)
	return q
}

// leafShift places a pair's digest leaf (storage.LeafOf) in the top
// bits of its slot hash; the probe hash has the bits below it.
// storage.Leaves is 1<<(64-leafShift).
const (
	leafShift = 58
	probeMask = 1<<leafShift - 1
)

// testHash, when non-nil, replaces a store's probe hash; the index
// equivalence test uses it to force long collision chains.
var testHash func(key string) uint64

// probeHash is the hash the index probes on: a seeded maphash of the
// key, never storage.LeafOf, which is the same in every process, so a
// client choosing keys could otherwise pile them into one probe chain.
func probeHash(seed maphash.Seed, key string) uint64 {
	if testHash != nil {
		return testHash(key) & probeMask
	}
	return maphash.String(seed, key) & probeMask
}

// slot is one index entry: p is nil in an empty slot; h holds the
// pair's leaf above leafShift and its probe hash below.
type slot struct {
	h uint64
	p cell
}

func (sl *slot) leaf() int { return int(sl.h >> leafShift) }

// index is an open-addressed hash table of cells: linear probing on
// the probe hash, backward-shift delete (so a freed slot needs no
// deleted marker),
// and a doubling at 3/4 load. A lookup touches one slot per probe and
// the cell of a slot whose probe hash matches. Its length is 0 or a
// power of two.
type index struct {
	slots []slot
	n     int // occupied slots
}

// find returns the index of the slot holding key, whose probe hash is
// h, or -1.
func (x *index) find(key string, h uint64) int {
	if x.n == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.p == nil {
			return -1
		}
		if sl.h&probeMask == h && sl.p.key() == key {
			return int(i)
		}
	}
}

// add stores cell p, whose key is absent, under probe hash h in the given
// leaf, growing the table first when it would pass 3/4 load, and
// returns the index of its slot.
func (x *index) add(h uint64, leaf int, p cell) int {
	if (x.n+1)*4 > len(x.slots)*3 {
		x.grow()
	}
	x.n++
	return x.place(slot{h: uint64(leaf)<<leafShift | h, p: p})
}

// place puts sl in the first empty slot of its probe chain and returns
// that slot's index.
func (x *index) place(sl slot) int {
	mask := uint64(len(x.slots) - 1)
	i := sl.h & probeMask & mask
	for x.slots[i].p != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = sl
	return int(i)
}

// grow doubles the table (from 8 slots when empty) and re-places every
// cell.
func (x *index) grow() {
	old := x.slots
	x.slots = make([]slot, max(8, 2*len(old)))
	for _, sl := range old {
		if sl.p != nil {
			x.place(sl)
		}
	}
}

// remove empties slot i, shifting back each later slot of its run
// that may move closer to its home, so every probe chain stays
// unbroken without deleted markers.
func (x *index) remove(i int) {
	mask := uint64(len(x.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; x.slots[j].p != nil; j = (j + 1) & mask {
		// The pair at j may fill the hole when the hole lies on its
		// probe path: nearer its home than j is.
		home := x.slots[j].h & probeMask & mask
		if (hole-home)&mask < (j-home)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = slot{}
	x.n--
}
