package core

import (
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
)

// breaker is a per-endpoint circuit breaker. Each endpoint's circuit
// moves through the classic three states:
//
//	closed    — calls flow; consecutive transport failures are
//	            counted, any success resets the count.
//	open      — threshold reached: calls fail fast (no transport
//	            attempt, no backoff sleeps) until the cooldown
//	            elapses. This is what stops a dead primary from
//	            costing opRetries×RetryBase on every operation
//	            before failover.
//	half-open — after the cooldown one probe call is let through,
//	            restarting the cooldown; success closes the circuit,
//	            failure restarts the cooldown again. A probe that
//	            never reports back holds nothing past its cooldown.
//
// Only transport-level failures count: a server answering anything —
// including StatusBusy — is alive, so responses never trip the
// breaker.
//
// A circuit is tracked from an endpoint's first failure until its next
// success. tracked mirrors how many there are, so while no circuit is
// tracked — every endpoint answering, the common case — allow and
// success return after one atomic load, without the mutex every
// client call on every core would otherwise share.
type breaker struct {
	threshold int
	cooldown  time.Duration
	// trips counts closed→open transitions; openG tracks how many
	// circuits are open right now. Both are nil-safe.
	trips *metrics.Counter
	openG *metrics.Gauge

	tracked atomic.Int64 // len(eps), written under mu

	mu  sync.Mutex
	eps map[string]*circuit
}

type circuit struct {
	fails    int
	open     bool
	openedAt time.Time // when the circuit opened or last admitted a probe
}

// newBreaker builds a breaker tuned by breakerThreshold and breakerCooldown.
func newBreaker(trips *metrics.Counter, openG *metrics.Gauge) *breaker {
	b := &breaker{
		threshold: breakerThreshold,
		cooldown:  breakerCooldown,
		trips:     trips,
		openG:     openG,
		eps:       make(map[string]*circuit),
	}
	if testBreakerTuning != nil {
		testBreakerTuning(b)
	}
	return b
}

// testBreakerTuning, when non-nil, retunes every breaker newBreaker
// builds: tests trip circuits after one or two failures and hold them
// open from 1 ms to 1 h.
var testBreakerTuning func(b *breaker)

// allow reports whether a call to addr may proceed. In the open
// state it admits a half-open probe once the cooldown has elapsed,
// restarting the cooldown, and rejects everything else, so at most
// one probe goes out per cooldown.
func (b *breaker) allow(addr string) bool {
	if b.tracked.Load() == 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.eps[addr]
	if c == nil || !c.open {
		return true
	}
	if now := time.Now(); now.Sub(c.openedAt) >= b.cooldown {
		c.openedAt = now
		return true
	}
	return false
}

// success records a successful call: the circuit closes and the
// failure count resets.
func (b *breaker) success(addr string) {
	if b.tracked.Load() == 0 {
		return
	}
	b.mu.Lock()
	if c := b.eps[addr]; c != nil {
		if c.open {
			b.openG.Dec()
		}
		delete(b.eps, addr)
		b.tracked.Add(-1)
	}
	b.mu.Unlock()
}

// failure records a transport failure to addr, opening the circuit at
// the threshold and re-opening it when a half-open probe fails.
func (b *breaker) failure(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.eps[addr]
	if c == nil {
		c = &circuit{}
		b.eps[addr] = c
		b.tracked.Add(1)
	}
	c.fails++
	if c.open {
		// A failed half-open probe restarts the cooldown.
		c.openedAt = time.Now()
		return
	}
	if c.fails >= b.threshold {
		c.open = true
		c.openedAt = time.Now()
		b.trips.Inc()
		b.openG.Inc()
	}
}
