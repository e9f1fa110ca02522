// Package chaos is a deterministic fault-injection layer over any
// transport.Caller.
//
// The paper's reliability mechanisms (§III.H–§III.J: lazy failure
// tagging with exponential backoff, replica failover, re-replication)
// only earn their keep under adversarial failure schedules — crashed
// nodes, partitions, lossy and slow links, duplicated datagrams.
// chaos.Caller wraps a real transport client (in-process, TCP, or
// UDP) and perturbs its traffic according to a scripted Scenario:
// each call consults the rule set active at the current offset into
// the scenario and may be dropped, delayed, duplicated, or blocked.
//
// A started call (Start, StartBatch) meets its faults in two places.
// At Start the layer draws the call's decisions and applies the
// request leg's: a down destination fails the call, and a cut, dropped
// or too-late request is lost — the handler never runs, and Wait
// reports ErrTimeout once the loss-detection time has passed. A
// request the layer lets through goes out at once on the wrapped
// caller's Start, unless its link has latency: then it goes out at
// Wait, once the request leg's latency has passed since Start. At
// Wait, timed from Start, the rest takes effect too: the duplicate is
// sent once the original is answered, a lost reply surfaces as
// ErrTimeout after the handler ran, and the answer is held until both
// legs' latency has passed since Start. Call and CallBatch are Start,
// then Wait. A decision is traced, and its fault counted, once it is
// final: at Start when no rule is active or the request leg faults, at
// Wait otherwise, so an abandoned call that got through is counted in
// zht.chaos.calls but not traced.
//
// Every decision derives from a stateless hash of (seed, destination,
// per-destination call counter, rule index, fault kind) — not from a
// shared RNG stream — so the same seed and the same per-destination
// call sequence reproduce exactly the same faults regardless of how
// calls to different destinations interleave. That makes failures
// replayable: a soak-test seed that loses a write is a repro case.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"zht/internal/metrics"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Rule perturbs traffic on the links it matches. Empty From/To match
// any source/destination; Sym additionally matches the reverse
// direction. A rule matched in the request direction (src→dst)
// affects the request leg; a rule matched in the reply direction
// (dst→src) affects the response leg — so a one-way partition can
// deliver a request and still starve the caller of its ack, which is
// the failure mode that distinguishes "op lost" from "ack lost".
type Rule struct {
	From, To string
	Sym      bool

	// Down fails the destination fast (dial refused): the caller
	// gets transport.ErrUnreachable without the request running.
	Down bool
	// Cut blackholes the link (partition): the caller burns its
	// budget (or the emulated loss timeout) and gets ErrTimeout.
	Cut bool
	// Drop is the probability a request leg is lost in flight
	// (handler never runs); DropReply is the probability the same
	// link's response leg is lost after the handler ran — the op
	// applied but the caller times out. Both match in the request
	// direction.
	Drop, DropReply float64
	// Dup is the probability the request is delivered twice
	// (at-least-once datagram semantics; exercises idempotency).
	Dup float64
	// Latency is fixed added one-way delay; Jitter adds a uniform
	// random extra in [0, Jitter).
	Latency, Jitter time.Duration
}

// matches reports whether the rule applies to the directed link
// from→to.
func (r *Rule) matches(from, to string) bool {
	if (r.From == "" || r.From == from) && (r.To == "" || r.To == to) {
		return true
	}
	if r.Sym && (r.From == "" || r.From == to) && (r.To == "" || r.To == from) {
		return true
	}
	return false
}

// Convenience constructors for common faults.

// Down marks addr crashed: every call to it fails fast.
func Down(addr string) Rule { return Rule{To: addr, Down: true} }

// Partition cuts both directions between a and b ("" = everyone).
func Partition(a, b string) Rule { return Rule{From: a, To: b, Sym: true, Cut: true} }

// OneWay cuts only the from→to direction.
func OneWay(from, to string) Rule { return Rule{From: from, To: to, Cut: true} }

// SlowLink adds symmetric latency (+ jitter) between a and b.
func SlowLink(a, b string, lat, jitter time.Duration) Rule {
	return Rule{From: a, To: b, Sym: true, Latency: lat, Jitter: jitter}
}

// Lossy drops the from→to request leg with probability p.
func Lossy(from, to string, p float64) Rule { return Rule{From: from, To: to, Drop: p} }

// Duplicating delivers from→to requests twice with probability p.
func Duplicating(from, to string, p float64) Rule { return Rule{From: from, To: to, Dup: p} }

// Step is one stage of a scripted scenario: Rules becomes the active
// rule set At the given offset from the scenario's start (replacing
// the previous step's rules entirely — an empty Rules heals all
// faults).
type Step struct {
	At    time.Duration
	Label string
	Rules []Rule
}

// Scenario is a timed schedule of fault configurations.
type Scenario struct {
	Steps []Step
}

// active returns the rule set in force at elapsed time since start.
func (s *Scenario) active(elapsed time.Duration) []Rule {
	if s == nil || len(s.Steps) == 0 {
		return nil
	}
	// First step with At > elapsed; the one before it governs.
	i := sort.Search(len(s.Steps), func(i int) bool { return s.Steps[i].At > elapsed })
	if i == 0 {
		return nil
	}
	return s.Steps[i-1].Rules
}

// Options configures a chaos Caller.
type Options struct {
	// Source is this caller's endpoint identity for rule matching
	// (the From side of its requests). Empty matches only wildcard
	// From rules.
	Source string
	// Seed drives every probabilistic decision. The same seed and
	// per-destination call sequence reproduce the same faults.
	Seed int64
	// LossTimeout emulates how long a dropped or blackholed request
	// takes to surface as ErrTimeout when the request carries no
	// deadline budget; a budget, when present, bounds it instead.
	// 0 means DefaultLossTimeout.
	LossTimeout time.Duration
	// Trace records every decision for inspection via Trace().
	Trace bool
	// Metrics, when non-nil, counts every call through the layer
	// (zht.chaos.calls) and every injected fault by kind
	// (zht.chaos.faults.{down,cut,drop,dup,reply_lost}) — unlike the
	// trace, counting is cheap enough to leave on during soak runs.
	Metrics *metrics.Registry
}

// DefaultLossTimeout is the emulated loss-detection delay for calls
// without a deadline budget.
const DefaultLossTimeout = 100 * time.Millisecond

// Verdict labels what the chaos layer did to one call.
type Verdict string

// Verdicts recorded in the decision trace.
const (
	VerdictOK        Verdict = "ok"
	VerdictDown      Verdict = "down"
	VerdictCut       Verdict = "cut"
	VerdictDrop      Verdict = "drop"
	VerdictDup       Verdict = "dup"
	VerdictReplyLost Verdict = "reply-lost"
)

// Decision is one trace entry: the n'th call to Dst got Verdict with
// Delay of injected latency.
type Decision struct {
	Dst     string
	N       uint64
	Verdict Verdict
	Delay   time.Duration
}

// Caller wraps a transport.Caller with scripted fault injection. It
// is safe for concurrent use; determinism is per destination (the
// i'th call to one destination always sees the same faults for a
// given seed, however calls to other destinations interleave).
type Caller struct {
	inner transport.Caller
	src   string
	seed  uint64
	loss  time.Duration
	sc    *Scenario
	start time.Time

	mu       sync.Mutex
	counters map[string]uint64
	trace    []Decision
	traceOn  bool

	calls  *metrics.Counter             // zht.chaos.calls
	faults map[Verdict]*metrics.Counter // nil when metrics are off
}

var _ transport.Caller = (*Caller)(nil)

// Wrap builds a chaos Caller over inner. The scenario clock starts
// now; a nil scenario injects nothing.
func Wrap(inner transport.Caller, sc *Scenario, opts Options) *Caller {
	if opts.LossTimeout <= 0 {
		opts.LossTimeout = DefaultLossTimeout
	}
	c := &Caller{
		inner:    inner,
		src:      opts.Source,
		seed:     uint64(opts.Seed),
		loss:     opts.LossTimeout,
		sc:       sc,
		start:    time.Now(),
		counters: make(map[string]uint64),
		traceOn:  opts.Trace,
	}
	if reg := opts.Metrics; reg != nil {
		c.calls = reg.Counter("zht.chaos.calls")
		c.faults = map[Verdict]*metrics.Counter{
			VerdictDown:      reg.Counter("zht.chaos.faults.down"),
			VerdictCut:       reg.Counter("zht.chaos.faults.cut"),
			VerdictDrop:      reg.Counter("zht.chaos.faults.drop"),
			VerdictDup:       reg.Counter("zht.chaos.faults.dup"),
			VerdictReplyLost: reg.Counter("zht.chaos.faults.reply_lost"),
		}
	}
	return c
}

// Trace returns a copy of the recorded decisions (Options.Trace).
func (c *Caller) Trace() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.trace...)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// bijection used to derive independent decision bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashAddr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Salt layout for decision derivation: ruleIdx*8 + fault kind.
const (
	saltDrop = iota
	saltDropReply
	saltDup
	saltJitterReq
	saltJitterReply
	saltKinds
)

// u01 derives a uniform float64 in [0,1) for decision n to dst under
// rule ri, fault kind k.
func (c *Caller) u01(dst string, n uint64, ri int, k int) float64 {
	x := splitmix64(c.seed ^ splitmix64(hashAddr(dst)))
	x = splitmix64(x ^ splitmix64(n))
	x = splitmix64(x ^ uint64(ri*saltKinds+k))
	return float64(x>>11) / float64(uint64(1)<<53)
}

// effects is the merged outcome of every rule matching one direction
// of one call.
type effects struct {
	down, cut, drop, dup, replyLost bool
	delay                           time.Duration
}

// resolve evaluates the active rules for call n in both directions.
func (c *Caller) resolve(rules []Rule, dst string, n uint64) (req, reply effects) {
	for ri := range rules {
		r := &rules[ri]
		if r.matches(c.src, dst) {
			if r.Down {
				req.down = true
			}
			if r.Cut {
				req.cut = true
			}
			if r.Drop > 0 && c.u01(dst, n, ri, saltDrop) < r.Drop {
				req.drop = true
			}
			if r.Dup > 0 && c.u01(dst, n, ri, saltDup) < r.Dup {
				req.dup = true
			}
			if r.DropReply > 0 && c.u01(dst, n, ri, saltDropReply) < r.DropReply {
				reply.replyLost = true
			}
			req.delay += r.Latency
			if r.Jitter > 0 {
				req.delay += time.Duration(c.u01(dst, n, ri, saltJitterReq) * float64(r.Jitter))
			}
		}
		if r.matches(dst, c.src) {
			if r.Cut {
				reply.cut = true
			}
			reply.delay += r.Latency
			if r.Jitter > 0 {
				reply.delay += time.Duration(c.u01(dst, n, ri, saltJitterReply) * float64(r.Jitter))
			}
		}
	}
	return req, reply
}

// record counts one fault and traces one decision.
func (c *Caller) record(dst string, n uint64, v Verdict, delay time.Duration) {
	if v != VerdictOK {
		c.faults[v].Inc() // nil-map lookup yields a nil (no-op) counter
	}
	if !c.traceOn {
		return
	}
	c.mu.Lock()
	c.trace = append(c.trace, Decision{Dst: dst, N: n, Verdict: v, Delay: delay})
	c.mu.Unlock()
}

// errLoss is what a lost request or reply surfaces as.
var errLoss = fmt.Errorf("%w: injected loss", transport.ErrTimeout)

// sleepLost burns the caller's loss-detection time for a blackholed
// leg, counted from the call's start: the request's budget when it
// carries one, the emulated loss timeout otherwise.
func (c *Caller) sleepLost(start, deadline time.Time) {
	wake := start.Add(c.loss)
	if !deadline.IsZero() && deadline.Before(wake) {
		wake = deadline
	}
	time.Sleep(time.Until(wake))
}

// lost is a call whose request the layer lost: its Wait reports
// ErrTimeout once the loss-detection time has passed.
func (c *Caller) lost(start, deadline time.Time) transport.Pending {
	return transport.Then(transport.Settled(nil, nil), func(*transport.Pending) transport.Outcome {
		c.sleepLost(start, deadline)
		return transport.Outcome{Err: errLoss}
	})
}

// perturbed runs one message through the fault pipeline. It draws the
// call's faults from the per-destination counter and applies the
// request leg's at once: a down destination fails the call, and a cut,
// dropped or too-late request loses it. A request without latency
// goes out at once on the wrapped caller (send); a delayed one goes
// out when the call is waited for, once its latency has passed since
// the start, with the budget it has left then, so the wrapped
// transport still honors the end-to-end deadline. The rest happens
// when the call is waited for too: the duplicate (sent and waited for
// once the original is answered), a lost reply, and the reply leg's
// latency, the answer being held until both legs' latency has passed
// since the start. Call and CallBatch share this pipeline — a batch
// envelope is one message on the wire, so one verdict covers every
// sub-operation in it; wait collects a started message as Wait or
// WaitBatch.
func (c *Caller) perturbed(addr string, budget uint64,
	send func(fwdBudget uint64) transport.Pending,
	wait func(*transport.Pending) transport.Outcome) transport.Pending {
	start := time.Now()
	rules := c.sc.active(start.Sub(c.start))

	c.mu.Lock()
	n := c.counters[addr]
	c.counters[addr] = n + 1
	c.mu.Unlock()
	c.calls.Inc()

	if len(rules) == 0 {
		c.record(addr, n, VerdictOK, 0)
		return send(0)
	}
	reqFx, replyFx := c.resolve(rules, addr, n)

	var deadline time.Time
	if budget > 0 {
		deadline = start.Add(time.Duration(budget))
	}
	if reqFx.down {
		c.record(addr, n, VerdictDown, 0)
		return transport.Settled(nil, fmt.Errorf("%w: injected crash of %q", transport.ErrUnreachable, addr))
	}
	if reqFx.cut || reqFx.drop {
		v := VerdictCut
		if reqFx.drop && !reqFx.cut {
			v = VerdictDrop
		}
		c.record(addr, n, v, 0)
		return c.lost(start, deadline)
	}
	// Request-leg latency: the message arrives late; if it lands past
	// the deadline the ack cannot possibly return in time.
	if !deadline.IsZero() && reqFx.delay >= deadline.Sub(start) {
		c.record(addr, n, VerdictCut, reqFx.delay)
		return c.lost(start, deadline)
	}
	msg := transport.Settled(nil, nil) // a delayed message goes out at Wait
	if reqFx.delay == 0 {
		msg = send(0)
	}
	return transport.Then(msg, func(p *transport.Pending) (o transport.Outcome) {
		fwdBudget := uint64(0)
		if reqFx.delay == 0 {
			o = wait(p)
		} else {
			time.Sleep(time.Until(start.Add(reqFx.delay)))
			if !deadline.IsZero() {
				rem := time.Until(deadline)
				if rem <= 0 {
					c.record(addr, n, VerdictCut, reqFx.delay)
					return transport.Outcome{Err: errLoss}
				}
				fwdBudget = uint64(rem)
			}
			q := send(fwdBudget)
			o = wait(&q)
		}
		if reqFx.dup {
			// At-least-once delivery: the retransmitted duplicate lands
			// after the original; its response is discarded.
			d := send(fwdBudget)
			wait(&d).Release()
		}
		delay := reqFx.delay + replyFx.delay
		if o.Err == nil {
			late := replyFx.delay > 0 && !deadline.IsZero() && !start.Add(delay).Before(deadline)
			if replyFx.cut || replyFx.replyLost || late {
				// The op ran — possibly mutating state — but its ack
				// never reaches us: indistinguishable from a lost
				// request to the caller, which is exactly the ambiguity
				// worth testing.
				if !late {
					delay = reqFx.delay
				}
				o.Release()
				c.record(addr, n, VerdictReplyLost, delay)
				c.sleepLost(start, deadline)
				return transport.Outcome{Err: errLoss}
			}
			time.Sleep(time.Until(start.Add(delay)))
		}
		v := VerdictOK
		if reqFx.dup {
			v = VerdictDup
		}
		c.record(addr, n, v, delay)
		return o
	})
}

// Call implements transport.Caller with fault injection around the
// wrapped caller: it is Start, then Wait.
func (c *Caller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	p := c.Start(addr, req)
	return p.Wait()
}

// CallBatch implements transport.Caller. The batch travels as one
// message, so the whole envelope shares a single fault verdict: a
// dropped batch loses every sub-operation, a duplicated one re-applies
// them all — the same blast-radius a real batched datagram or frame
// would have.
func (c *Caller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	p := c.StartBatch(addr, reqs)
	return p.WaitBatch()
}

// Start implements transport.Caller: a call the layer lets through
// goes out on the wrapped caller's Start, so over TCP it takes the
// multiplexed path production runs.
func (c *Caller) Start(addr string, req *wire.Request) transport.Pending {
	return c.perturbed(addr, req.Budget,
		func(b uint64) transport.Pending { return c.inner.Start(addr, withBudget(req, b)) },
		func(p *transport.Pending) (o transport.Outcome) {
			o.Resp, o.Err = p.Wait()
			return o
		})
}

// StartBatch implements transport.Caller with CallBatch's one verdict
// per envelope.
func (c *Caller) StartBatch(addr string, reqs []*wire.Request) transport.Pending {
	if len(reqs) == 0 {
		return transport.Pending{}
	}
	budget := uint64(0)
	for _, r := range reqs {
		budget = max(budget, r.Budget)
	}
	shrunk := func(b uint64) []*wire.Request {
		if b == 0 {
			return reqs
		}
		fwd := make([]*wire.Request, len(reqs))
		for i, r := range reqs {
			fwd[i] = withBudget(r, b)
		}
		return fwd
	}
	return c.perturbed(addr, budget,
		func(b uint64) transport.Pending { return c.inner.StartBatch(addr, shrunk(b)) },
		func(p *transport.Pending) (o transport.Outcome) {
			o.Resps, o.Err = p.WaitBatch()
			return o
		})
}

// withBudget returns req carrying budget b, copied when b is set.
func withBudget(req *wire.Request, b uint64) *wire.Request {
	if b == 0 {
		return req
	}
	fwd := *req
	fwd.Budget = b
	return &fwd
}

// Close implements transport.Caller.
func (c *Caller) Close() error { return c.inner.Close() }
