// Package gossip implements anti-entropy membership dissemination for
// ZHT: every instance piggybacks its ring epoch on normal
// request/response traffic (wire.Request.Epoch / wire.Response.Epoch),
// and a holder that observes a newer epoch pulls the missing
// ring.Deltas — or the full table when the peer's delta log no longer
// covers the gap — from the peer it just talked to. A manager pushes a
// change only to the instances whose copies it moves (core's announce
// rule); gossip is how every other instance and every client learns of
// it, and how a partitioned or crashed node re-converges on its own,
// the way epoch-stamped single-hop DHTs (Monnerat, arXiv:1408.7070)
// keep full routing tables fresh with low maintenance traffic.
//
// The package owns the mechanism — staleness detection, single-flight
// rate-limited pull rounds, and the pull payload codec — while
// internal/core owns the policy: what a pull fetches (wire.OpDeltaPull
// against the instance's ring.DeltaLog) and how frames apply to the
// local table.
package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"zht/internal/metrics"
)

// DefaultCooldown is the minimum interval between pull rounds. Epoch
// mismatches arrive with every message from a newer peer; the cooldown
// collapses those bursts into one catch-up pull per interval.
const DefaultCooldown = 25 * time.Millisecond

// DefaultMaxFallback bounds how many fallback peers one round tries
// when the staleness signal names no source (an inbound request from
// an unknown sender carried the newer epoch).
const DefaultMaxFallback = 3

// Options configures a Service. Epoch and Pull are mandatory.
type Options struct {
	// Epoch returns the holder's current membership epoch.
	Epoch func() uint64
	// Pull fetches missing membership state from addr and applies it
	// locally, reporting whether the local epoch advanced. The
	// implementation decides between delta replay and full-table
	// adoption (see wire.OpDeltaPull).
	Pull func(addr string) bool
	// Peers returns fallback pull sources (peer addresses, excluding
	// the holder) consulted when a round's named source is empty or
	// exhausted. May be nil: rounds then only use the named source.
	Peers func() []string
	// Cooldown is the minimum interval between pull rounds; 0 means
	// DefaultCooldown.
	Cooldown time.Duration
	// MaxFallback bounds fallback sources tried per round; 0 means
	// DefaultMaxFallback.
	MaxFallback int
	// Metrics, when non-nil, receives the zht.membership.* gossip
	// instruments.
	Metrics *metrics.Registry
}

// Service watches epoch observations and runs catch-up pulls. All
// methods are safe for concurrent use and nil-safe, so a holder that
// leaves pulling to another (a client sharing an instance's table)
// passes a nil *Service around.
type Service struct {
	opts Options

	mu       sync.Mutex
	inflight bool
	last     time.Time
	closed   bool
	rot      int // fallback rotation cursor, so retries spread over peers
	wg       sync.WaitGroup

	staleDetected *metrics.Counter // zht.membership.stale_detected
	pulls         *metrics.Counter // zht.membership.gossip.pulls
	advanced      *metrics.Counter // zht.membership.gossip.advanced
}

// New creates a Service. It returns an error if Epoch or Pull is nil.
func New(opts Options) (*Service, error) {
	if opts.Epoch == nil || opts.Pull == nil {
		return nil, errors.New("gossip: Epoch and Pull are required")
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = DefaultCooldown
	}
	if opts.MaxFallback <= 0 {
		opts.MaxFallback = DefaultMaxFallback
	}
	return &Service{
		opts:          opts,
		staleDetected: opts.Metrics.Counter("zht.membership.stale_detected"),
		pulls:         opts.Metrics.Counter("zht.membership.gossip.pulls"),
		advanced:      opts.Metrics.Counter("zht.membership.gossip.advanced"),
	}, nil
}

// Observe reports that traffic with addr carried peerEpoch. When the
// peer is ahead of the local table, a background pull round starts —
// from addr when known (the peer that proved it has newer state is the
// best source), falling back to Peers() otherwise — unless a round is
// already running or ran within the cooldown. addr may be empty: an
// inbound request revealed the staleness but not a reachable sender.
func (s *Service) Observe(addr string, peerEpoch uint64) {
	if s == nil || peerEpoch == 0 || peerEpoch <= s.opts.Epoch() {
		return
	}
	s.staleDetected.Inc()
	s.mu.Lock()
	if s.closed || s.inflight || time.Since(s.last) < s.opts.Cooldown {
		s.mu.Unlock()
		return
	}
	s.inflight = true
	s.wg.Add(1)
	s.mu.Unlock()
	go s.round(addr, peerEpoch)
}

// round runs one catch-up pull: the named source first, then up to
// MaxFallback peers, stopping as soon as the local epoch reaches the
// observed target (later observations start fresh rounds for anything
// newer still).
func (s *Service) round(addr string, target uint64) {
	defer func() {
		s.mu.Lock()
		s.inflight = false
		s.last = time.Now()
		s.mu.Unlock()
		s.wg.Done()
	}()
	try := func(a string) bool {
		if a == "" {
			return false
		}
		s.pulls.Inc()
		if s.opts.Pull(a) {
			s.advanced.Inc()
			return true
		}
		return false
	}
	try(addr)
	if s.opts.Epoch() >= target || s.opts.Peers == nil {
		return
	}
	peers := s.opts.Peers()
	if len(peers) == 0 {
		return
	}
	s.mu.Lock()
	start := s.rot
	s.rot++
	s.mu.Unlock()
	for i := 0; i < len(peers) && i < s.opts.MaxFallback; i++ {
		p := peers[(start+i)%len(peers)]
		if p == addr {
			continue
		}
		try(p)
		if s.opts.Epoch() >= target {
			return
		}
	}
}

// Close stops the service: no new rounds start, and Close returns once
// the in-flight round (if any) finishes.
func (s *Service) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// Pull payload codec: the Value of a wire.OpDeltaPull response.
//
//	'G' 'D' count {len frame}...   ordered delta frames to replay
//	'G' 'T' table                  full encoded table (gap fallback)
const (
	payloadMagic  = 'G'
	payloadDeltas = 'D'
	payloadTable  = 'T'
)

// maxPullFrames guards the decoder against corrupt counts; no honest
// delta log retains anywhere near this many entries.
const maxPullFrames = 1 << 16

var errMalformed = errors.New("gossip: malformed pull payload")

// EncodeDeltas packs ordered delta frames into a pull payload. A nil
// or empty frames slice is valid: "you are already current".
func EncodeDeltas(frames [][]byte) []byte {
	n := 3
	for _, f := range frames {
		n += binary.MaxVarintLen64 + len(f)
	}
	out := make([]byte, 2, n)
	out[0], out[1] = payloadMagic, payloadDeltas
	out = binary.AppendUvarint(out, uint64(len(frames)))
	for _, f := range frames {
		out = binary.AppendUvarint(out, uint64(len(f)))
		out = append(out, f...)
	}
	return out
}

// EncodeFullTable packs an encoded ring table into a pull payload —
// the fallback when the delta log cannot cover the requester's gap.
func EncodeFullTable(encTable []byte) []byte {
	out := make([]byte, 0, 2+len(encTable))
	out = append(out, payloadMagic, payloadTable)
	return append(out, encTable...)
}

// DecodePull parses a pull payload: exactly one of frames and table is
// non-nil on success (an empty delta payload yields frames == nil,
// table == nil, err == nil — "already current"). Returned slices alias
// b; callers that retain them must copy.
func DecodePull(b []byte) (frames [][]byte, table []byte, err error) {
	if len(b) < 2 || b[0] != payloadMagic {
		return nil, nil, errMalformed
	}
	switch b[1] {
	case payloadTable:
		if len(b) == 2 {
			return nil, nil, errMalformed
		}
		return nil, b[2:], nil
	case payloadDeltas:
		rest := b[2:]
		n, m := binary.Uvarint(rest)
		if m <= 0 || n > maxPullFrames {
			return nil, nil, errMalformed
		}
		rest = rest[m:]
		for i := uint64(0); i < n; i++ {
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest[m:])) < l {
				return nil, nil, errMalformed
			}
			frames = append(frames, rest[m:m+int(l)])
			rest = rest[m+int(l):]
		}
		if len(rest) != 0 {
			return nil, nil, errMalformed
		}
		return frames, nil, nil
	}
	return nil, nil, fmt.Errorf("%w: kind %q", errMalformed, b[1])
}
