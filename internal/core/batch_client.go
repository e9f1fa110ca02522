package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// BatchOp is one operation in a Client.Batch call.
type BatchOp struct {
	// Op must be OpInsert, OpLookup, OpRemove, or OpAppend.
	Op    wire.Op
	Key   string
	Value []byte // payload for Insert/Append; ignored for Lookup/Remove
}

// BatchResult is the outcome of the BatchOp at the same index.
type BatchResult struct {
	// Value is the looked-up value (Lookup only).
	Value []byte
	// Err is nil on success, or the same error vocabulary single ops
	// use (ErrNotFound, ErrUnavailable, ...).
	Err error
}

// outcome is one routed request's state: the address a migration
// redirected it to, and once done its answer. Until then err holds why
// the last round left it unsettled.
type outcome struct {
	redirect string
	val      []byte
	ver      uint64
	err      error
	done     bool
}

// message is one destination's share of a round: a run of the round's
// requests starting at tag lo, and the call carrying them.
type message struct {
	addr    string
	id      ring.InstanceID // the ring instance addressed; empty for a redirect
	lo      int
	reqs    []*wire.Request
	call    transport.Pending
	started bool
	err     error // the message never went out (breaker open, deadline gone)
	one     [1]*wire.Response
}

// route is one routed call's working set, pooled so neither grouping
// nor the requests allocate or touch a pool per op. It is flat: vals
// holds the requests by value, tags order the unsettled ones by
// destination, a destination's message is a run of tags, and subs
// holds the requests in tag order so each message's requests are one
// contiguous slice of it.
type route struct {
	vals   []wire.Request  // the requests, input order
	reqs   []*wire.Request // reqs[i] == &vals[i]
	outs   []outcome       // input order
	tags   []int64         // destination<<32 | request index, sorted
	subs   []*wire.Request // tag order
	msgs   []message
	redirs []string // this round's redirect destinations
	left   int      // requests not settled yet
}

var routePool = sync.Pool{New: func() any { return new(route) }}

// routeMin is the least capacity of a route's arrays. A route of one
// writes every array on every op, and arrays of one element, 8 bytes
// each, would share cache lines with other goroutines' routes.
const routeMin = 8

// getRoute returns a pooled route holding n zeroed requests, with room
// to group them.
func getRoute(n int) *route {
	rt := routePool.Get().(*route)
	c := max(n, routeMin)
	rt.vals = slices.Grow(rt.vals, c)[:n]
	rt.outs = slices.Grow(rt.outs, c)[:n]
	rt.reqs = slices.Grow(rt.reqs, c)
	rt.tags = slices.Grow(rt.tags, c)
	rt.subs = slices.Grow(rt.subs, c)
	rt.msgs = slices.Grow(rt.msgs, routeMin)
	for i := range rt.vals {
		rt.reqs = append(rt.reqs, &rt.vals[i])
	}
	return rt
}

// release clears the caller's keys, values and answers and the last
// round's calls from rt, and returns it to the pool. reqs and subs
// point into vals only; earlier rounds' messages hold spent calls.
func (rt *route) release() {
	clear(rt.vals)
	clear(rt.outs)
	clear(rt.msgs)
	rt.vals, rt.reqs, rt.outs = rt.vals[:0], rt.reqs[:0], rt.outs[:0]
	rt.reset()
	routePool.Put(rt)
}

// reset empties the round's grouping; group overwrites every message.
func (rt *route) reset() {
	rt.tags, rt.subs, rt.msgs, rt.redirs = rt.tags[:0], rt.subs[:0], rt.msgs[:0], rt.redirs[:0]
}

// settle records request i's answer.
func (rt *route) settle(i int, val []byte, ver uint64, err error) {
	o := &rt.outs[i]
	o.val, o.ver, o.err, o.done = val, ver, err, true
	rt.left--
}

// Batch executes a mixed set of operations, returning one result per
// op in input order. Sub-ops are grouped by owning instance from the
// local table (zero hops), each group travels as one envelope, and the
// whole batch shares one OpDeadline budget under the breaker and
// backoff machinery single ops use — it is the same routing loop, run
// over n requests.
//
// Ops on the same key preserve their input order (same key, same
// partition, same message, applied in order server-side, and re-routed
// together), so per-key results are identical to issuing the ops
// sequentially. Ordering across different keys is not defined, exactly
// as it is not for concurrent single ops.
func (c *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		switch op.Op {
		case wire.OpInsert, wire.OpLookup, wire.OpRemove, wire.OpAppend:
		default:
			return nil, fmt.Errorf("zht: batch: unsupported op %s", op.Op)
		}
	}
	c.metrics.batches.Inc()
	c.metrics.batchSize.Observe(int64(len(ops)))
	c.metrics.ops.Add(int64(len(ops)))
	rt := getRoute(len(ops))
	defer rt.release()
	for i, op := range ops {
		r := rt.reqs[i]
		r.Op, r.Key, r.Value = op.Op, op.Key, op.Value
	}
	c.route(rt, c.opDeadline())
	results := make([]BatchResult, len(ops))
	for i, o := range rt.outs {
		results[i] = BatchResult{Value: o.val, Err: o.err}
		c.countUnavailable(o.err)
	}
	return results, nil
}

// route settles every request in rt, in rounds. A round groups the
// unsettled requests by destination from the current table and sends
// one message per destination: a plain frame for one request, an
// OpBatch envelope for several. With several destinations every message
// is on the wire before the first answer is awaited, so they work in
// parallel while this goroutine waits for each in turn; a round with
// one destination is a plain call on this goroutine. Routing feedback —
// a stale table, a migration redirect, a shed, an unreachable
// destination — leaves a request for the next round, so a batch's
// stragglers re-route as envelopes too. All rounds share deadline,
// which every attempt carries in wire.Request.Budget, so an operation
// resolves or fails with ErrUnavailable within it instead of
// compounding per-layer timeouts; at most routeAttempts rounds run.
func (c *Client) route(rt *route, deadline time.Time) {
	rt.left = len(rt.reqs)
	for attempt := 0; rt.left > 0; attempt++ {
		table := c.snapshot()
		msgs := c.group(rt, table)
		if len(msgs) == 0 {
			return
		}
		// The first round's deadline check is preflight's.
		if attempt == routeAttempts || attempt > 0 && expired(deadline) {
			why := "routing did not converge"
			if expired(deadline) {
				why = "op deadline exceeded"
			}
			for _, t := range rt.tags {
				i := int(t & 0xffffffff)
				rt.settle(i, nil, 0, fmt.Errorf("%w: %s: %v", ErrUnavailable, why, rt.outs[i].err))
			}
			return
		}
		if len(msgs) > 1 {
			for j := range msgs {
				c.launch(&msgs[j], deadline)
			}
		}
		shed, pause := false, time.Duration(0)
		for j := range msgs {
			m := &msgs[j]
			rs, err := c.exchange(m, deadline)
			if err != nil {
				// Unreachable: report a ring instance to a manager, which
				// fails it over, and re-route next round.
				for k := range m.reqs {
					rt.outs[rt.tags[m.lo+k]&0xffffffff].err = err
				}
				if m.id == "" || expired(deadline) {
					continue
				}
				if rerr := c.reportFailure(table, m.id, deadline); rerr != nil {
					for k := range m.reqs {
						rt.settle(int(rt.tags[m.lo+k]&0xffffffff), nil, 0,
							fmt.Errorf("%w: %s unreachable and failover failed: %v", ErrUnavailable, m.addr, rerr))
					}
				}
				continue
			}
			var wrong error
			for k, resp := range rs {
				i := int(rt.tags[m.lo+k] & 0xffffffff)
				o := &rt.outs[i]
				if err, done := statusToErr(m.reqs[k].Op, resp); done {
					rt.settle(i, resp.Value, resp.Version, err)
					continue
				}
				switch resp.Status {
				case wire.StatusWrongOwner:
					c.metrics.wrongOwner.Inc()
					if t, err := ring.DecodeTable(resp.Table); err == nil {
						c.adoptTable(t)
					}
					if wrong == nil {
						wrong = fmt.Errorf("zht: wrong owner at %s (epoch %d)", m.addr, table.Epoch)
					}
					o.err = wrong
				case wire.StatusMigrating:
					// Follow the redirect next round; membership will
					// catch up lazily.
					o.redirect = resp.Redirect
					o.err = fmt.Errorf("zht: partition migrating at %s", m.addr)
				case wire.StatusBusy:
					// The exchange already backed off through its retry
					// budget; pause once more and re-route (the table may
					// have changed) until the deadline runs out.
					shed, pause = true, max(pause, time.Duration(resp.RetryAfter))
					o.err = fmt.Errorf("zht: %s overloaded", m.addr)
				}
			}
			// Values alias the response (an envelope's, never its slab).
			m.release(rs)
		}
		rt.reset()
		if shed {
			if pause == 0 {
				pause = c.backoff(attempt)
			}
			c.sleepBounded(pause, deadline)
		}
	}
}

// group sorts rt's unsettled requests by destination — the owner from
// table, its first alive replica while the owner is not Alive, or a
// migration redirect — and returns one message per destination, none
// once every request settled. A request with no destination settles as
// unavailable.
func (c *Client) group(rt *route, table *ring.Table) []message {
	epoch := c.issued().Epoch
	n := len(table.Instances)
	for i, r := range rt.reqs {
		o := &rt.outs[i]
		if o.done {
			continue
		}
		var dst int
		if o.redirect != "" {
			if dst = slices.Index(rt.redirs, o.redirect); dst < 0 {
				dst = len(rt.redirs)
				rt.redirs = append(rt.redirs, o.redirect)
			}
			dst += n
			o.redirect = ""
		} else {
			p := table.Partition(c.hashf(r.Key))
			if dst = table.Owner[p]; table.Status[dst] != ring.Alive {
				rep := failoverTarget(table, p, c.cfg.Replicas)
				if rep.ID == "" {
					rt.settle(i, nil, 0, fmt.Errorf("%w: no alive replica for partition %d", ErrUnavailable, p))
					continue
				}
				dst = table.IndexOf(rep.ID)
			}
		}
		r.Epoch = epoch
		rt.tags = append(rt.tags, int64(dst)<<32|int64(i))
	}
	slices.Sort(rt.tags)
	tags := rt.tags
	for k, t := range tags {
		rt.subs = append(rt.subs, rt.reqs[t&0xffffffff])
		if k > 0 && t>>32 == tags[k-1]>>32 {
			continue
		}
		rt.msgs = append(rt.msgs, message{lo: k})
		m := &rt.msgs[len(rt.msgs)-1]
		if d := int(t >> 32); d < n {
			m.addr, m.id = table.Instances[d].Addr, table.Instances[d].ID
		} else {
			m.addr = rt.redirs[d-n]
		}
	}
	for j := range rt.msgs {
		hi := len(rt.subs)
		if j+1 < len(rt.msgs) {
			hi = rt.msgs[j+1].lo
		}
		rt.msgs[j].reqs = rt.subs[rt.msgs[j].lo:hi]
	}
	return rt.msgs
}

// launch starts m without awaiting it, once preflight clears it; a
// refusal stays in m.err for exchange to return.
func (c *Client) launch(m *message, deadline time.Time) {
	if m.err = c.preflight(m, deadline, nil); m.err != nil {
		return
	}
	if len(m.reqs) == 1 {
		m.call = transport.Start(c.caller, m.addr, m.reqs[0])
	} else {
		m.call = transport.StartBatch(c.caller, m.addr, m.reqs)
	}
	m.started = true
}

// await completes one attempt of m: it collects the started call, or
// sends m on the calling goroutine — a plain Call for one request, a
// CallBatch envelope for several. The answers come in request order.
func (m *message) await(c transport.Caller) ([]*wire.Response, error) {
	started := m.started
	m.started = false
	if len(m.reqs) > 1 {
		if started {
			return m.call.WaitBatch()
		}
		return c.CallBatch(m.addr, m.reqs)
	}
	var err error
	if started {
		m.one[0], err = m.call.Wait()
	} else {
		m.one[0], err = c.Call(m.addr, m.reqs[0])
	}
	if err != nil {
		return nil, err
	}
	return m.one[:], nil
}

// release returns m's answers to their pools.
func (m *message) release(rs []*wire.Response) {
	if len(m.reqs) > 1 {
		wire.ReleaseResponses(rs)
	} else {
		wire.PutResponse(rs[0])
	}
}
