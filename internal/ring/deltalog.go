package ring

import "sync"

// DefaultDeltaLogCap is how many trailing deltas an instance retains
// for gossip catch-up. A stale peer within the window replays deltas;
// one further behind falls back to a full-table fetch — the same
// recovery path ErrEpochMismatch forces, made deterministic.
const DefaultDeltaLogCap = 64

// DeltaLog is a bounded, concurrency-safe log of encoded membership
// deltas keyed by the epoch they apply on top of (Delta.FromEpoch).
// Instances record every delta they apply and serve Since to peers
// catching up via gossip pulls (wire.OpDeltaPull). The log is
// best-effort by design: a full-table adoption skips epochs, leaving a
// gap, and Since then reports the range uncoverable so the puller
// fetches the full table instead.
type DeltaLog struct {
	mu     sync.Mutex
	cap    int
	frames map[uint64][]byte // FromEpoch → encoded delta
	max    uint64            // highest FromEpoch recorded
}

// NewDeltaLog returns a log retaining at most cap deltas; cap <= 0
// selects DefaultDeltaLogCap.
func NewDeltaLog(cap int) *DeltaLog {
	if cap <= 0 {
		cap = DefaultDeltaLogCap
	}
	return &DeltaLog{cap: cap, frames: make(map[uint64][]byte, cap)}
}

// Record stores the encoded delta applying on top of fromEpoch,
// evicting entries that fall out of the retention window. The frame is
// copied: callers may pass buffers aliasing transport decode storage.
func (l *DeltaLog) Record(fromEpoch uint64, frame []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames[fromEpoch] = append([]byte(nil), frame...)
	if fromEpoch > l.max {
		l.max = fromEpoch
	}
	// Evict below the window. The map only ever holds ~cap entries,
	// so the sweep is O(cap) worst case and usually O(1).
	for e := range l.frames {
		if e+uint64(l.cap) <= l.max {
			delete(l.frames, e)
		}
	}
}

// Since returns the contiguous run of encoded deltas covering epochs
// [from, to) — replaying them in order advances a table at epoch
// `from` to epoch `to`. ok is false when any epoch in the range is
// missing (evicted, or skipped by a full-table adoption): the caller
// must fall back to fetching the full table.
func (l *DeltaLog) Since(from, to uint64) (frames [][]byte, ok bool) {
	if l == nil || from >= to {
		return nil, from >= to
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	frames = make([][]byte, 0, to-from)
	for e := from; e < to; e++ {
		f, present := l.frames[e]
		if !present {
			return nil, false
		}
		frames = append(frames, f)
	}
	return frames, true
}

// Reset drops every retained delta. A holder that adopts a full table
// resets its log: the deltas it holds led to the table it replaced,
// which may be another table of the same epoch.
func (l *DeltaLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.frames)
	l.max = 0
}

// Len reports how many deltas the log currently retains.
func (l *DeltaLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}
