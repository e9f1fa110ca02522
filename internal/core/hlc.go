package core

import (
	"sync/atomic"
	"time"

	"zht/internal/ring"
)

// hlc is the instance's hybrid logical clock: the source of the
// version stamps that order writes for last-writer-wins resolution
// across replicas (DESIGN.md §12). A stamp packs wall-clock
// milliseconds in the top 48 bits (microseconds would overflow 48
// bits already; milliseconds last ~8900 years) and a 16-bit node
// hash in the low bits, so stamps from different nodes in the same
// millisecond still differ and compare deterministically. The clock
// never returns the same or a smaller value twice (a burst faster than
// the wall clock advances by borrowing future milliseconds, keeping the
// node bits intact), and Observe folds in every stamp installed from
// elsewhere — replica legs, repair pairs, migration images, replayed
// logs — so a node whose wall clock lags a peer's still stamps its
// next local write above everything it holds.
type hlc struct {
	last atomic.Uint64 // the highest stamp returned or observed
	node uint64        // low 16 bits of every stamp
	// wall reads the wall clock in milliseconds, and casHook, when
	// non-nil, runs before each compare-and-swap Reserve makes: tests
	// count both through them.
	wall    func() uint64
	casHook func()
}

// hlcNodeBits is how many low bits of a stamp carry the node hash.
const hlcNodeBits = 16

// hlcTick is the distance between two consecutive stamps of one node.
const hlcTick = 1 << hlcNodeBits

// newHLC seeds a clock with the node hash derived from the
// instance's ring ID (stable across restarts).
func newHLC(id ring.InstanceID) *hlc {
	h := uint64(14695981039346656037)
	for _, b := range []byte(id) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &hlc{node: h & (1<<hlcNodeBits - 1), wall: wallMillis}
}

func wallMillis() uint64 { return uint64(time.Now().UnixMilli()) }

// Next returns a stamp strictly greater than every stamp this clock
// has returned or observed.
func (c *hlc) Next() uint64 { return c.Reserve(1) }

// Reserve returns the first of n ≥ 1 consecutive stamps,
// first + k*hlcTick for k < n, each strictly greater than every stamp
// this clock has returned or observed before. It reads the wall clock once and, unless
// another writer races it, swaps the clock once, so an envelope of n
// mutations pays the clock's fixed cost once. Reserve is lock-free:
// concurrent writers race on one compare-and-swap instead of queueing
// on a mutex.
func (c *hlc) Reserve(n int) uint64 {
	phys := c.wall()
	for {
		last := c.last.Load()
		// Bursts faster than the wall clock (or a clock running behind an
		// observed peer's) borrow the next milliseconds rather than
		// bumping the raw stamp, so the low bits always stay this node's
		// hash.
		first := max(phys, last>>hlcNodeBits+1)<<hlcNodeBits | c.node
		if c.casHook != nil {
			c.casHook()
		}
		if c.last.CompareAndSwap(last, first+uint64(n-1)*hlcTick) {
			return first
		}
	}
}

// Observe advances the clock past an externally produced stamp;
// observing version 0 is a no-op.
func (c *hlc) Observe(v uint64) {
	for {
		last := c.last.Load()
		if v <= last || c.last.CompareAndSwap(last, v) {
			return
		}
	}
}
