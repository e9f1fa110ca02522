package core

import (
	"sync/atomic"
	"time"

	"zht/internal/ring"
	"zht/internal/storage"
)

// hlc is the instance's hybrid logical clock: the floor of the version
// stamps that order writes for last-writer-wins resolution across
// replicas (DESIGN.md §12). A stamp is wall-clock milliseconds over
// this node's 16-bit hash (storage.Stamp). The clock only hands out a
// floor; the store orders a key's writes, lifting a write above the
// key's stored stamp (storage.StampAbove), so a pair's stamp needs no
// observe. Observe folds in the stamps a store will forget: every
// tombstone's, from an owner remove, a remove leg or a repair sweep, a
// reaped pair's, and the replayed log's highest. So once a store drops
// one, the node's next write of the key still lands above any copy
// that keeps it.
type hlc struct {
	last atomic.Uint64 // the highest stamp observed
	node uint64        // low bits of every stamp
	// wall reads the wall clock in milliseconds; tests count its reads.
	wall func() uint64
}

// newHLC seeds a clock with the node hash derived from the
// instance's ring ID (stable across restarts).
func newHLC(id ring.InstanceID) *hlc {
	h := uint64(14695981039346656037)
	for _, b := range []byte(id) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &hlc{node: h & (1<<storage.StampNodeBits - 1), wall: wallMillis}
}

func wallMillis() uint64 { return uint64(time.Now().UnixMilli()) }

// Floor returns the stamp an envelope's mutations are given: this
// node's bits at the wall clock's millisecond, or one millisecond past
// the last observed stamp when that is later. It reads the wall clock
// once and the clock with one load and writes nothing, so writers on
// every core only read the shared word.
func (c *hlc) Floor() uint64 {
	return storage.Stamp(max(c.wall(), c.last.Load()>>storage.StampNodeBits+1), c.node)
}

// Observe raises the clock to v, so every later Floor passes it;
// observing a stamp at or below the clock is one load.
func (c *hlc) Observe(v uint64) {
	for {
		last := c.last.Load()
		if v <= last || c.last.CompareAndSwap(last, v) {
			return
		}
	}
}
