package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Client side of the batched request path. Batch keeps the zero-hop
// property of single ops — every sub-op is routed from the local
// membership table with no forwarding — while amortizing per-message
// cost: sub-ops for one destination travel as a single OpBatch
// envelope, and every destination's envelope is on the wire before
// the first answer is awaited.

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

// batchDest is one destination's envelope in a Client.Batch: its run
// of the sorted tags, and the call carrying it.
type batchDest struct {
	addr   string
	lo, hi int
	call   transport.Pending
	err    error // the envelope never went out (breaker open, deadline gone)
}

// clientBatch is one Client.Batch call's working set, pooled so
// grouping allocates nothing per destination. It is flat: tags order
// the sub-ops by destination, a destination's envelope is a run of
// tags, and subs holds the sub-requests in tag order so each
// envelope's requests are one contiguous slice of it.
type clientBatch struct {
	reqs    []*wire.Request // input order
	tags    []int64         // destination ring index<<32 | op index, sorted
	subs    []*wire.Request // tag order
	dests   []batchDest
	settled []bool
}

var clientBatchPool = sync.Pool{New: func() any { return new(clientBatch) }}

// release clears every reference the call left in sb and returns it
// to the pool.
func (sb *clientBatch) release() {
	clear(sb.reqs)
	clear(sb.subs)
	clear(sb.dests)
	sb.reqs, sb.tags, sb.subs, sb.dests = sb.reqs[:0], sb.tags[:0], sb.subs[:0], sb.dests[:0]
	clientBatchPool.Put(sb)
}

// Batch executes a mixed set of operations, returning one result per
// op in input order. Sub-ops are grouped by owning instance from the
// local table (zero hops) and each group is issued as one batched
// envelope: every envelope is started before any is awaited, so the
// destinations work in parallel while this goroutine waits for each in
// turn. The whole batch shares one OpDeadline budget under the
// existing breaker/backoff machinery. Sub-ops the fast path could not
// settle — WrongOwner after a membership change, an in-flight
// migration, an unreachable destination — are re-routed individually
// through the same routing loop single ops use, after adopting any
// fresher table the servers answered with.
//
// Ops on the same key preserve their input order (same key, same
// partition, same envelope, applied in order server-side), so per-key
// results are identical to issuing the ops sequentially. Ordering
// across different keys is not defined, exactly as it is not for
// concurrent single ops.
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
	sb := clientBatchPool.Get().(*clientBatch)
	defer sb.release()
	reqs := sb.reqs[:0]
	for _, op := range ops {
		r := wire.GetRequest()
		r.Op, r.Key, r.Value = op.Op, op.Key, op.Value
		reqs = append(reqs, r)
	}
	sb.reqs = reqs
	defer wire.ReleaseOps(reqs)
	c.metrics.batches.Inc()
	c.metrics.batchSize.Observe(int64(len(ops)))
	c.metrics.ops.Add(int64(len(ops)))

	var deadline time.Time
	if c.cfg.OpDeadline > 0 {
		deadline = time.Now().Add(c.cfg.OpDeadline)
	}

	results := make([]BatchResult, len(ops))
	settled := append(sb.settled[:0], make([]bool, len(ops))...)
	sb.settled = settled

	// Tag each sub-op with its destination: the partition's owner, or
	// its first alive replica when the owner is marked failed. Keys with
	// no route from this snapshot fall through to the per-op path, which
	// owns failover reporting.
	table := c.snapshot()
	tags := sb.tags[:0]
	for i, r := range reqs {
		p := table.Partition(c.hashf(r.Key))
		idx := table.Owner[p]
		if table.Status[idx] != ring.Alive {
			reps := table.ReplicasOf(p, maxInt(c.cfg.Replicas, 1))
			if len(reps) == 0 {
				continue
			}
			idx = table.IndexOf(reps[0].ID)
		}
		r.Epoch = table.Epoch
		tags = append(tags, int64(idx)<<32|int64(i))
	}
	slices.Sort(tags)
	sb.tags = tags
	subs, dests := sb.subs[:0], sb.dests[:0]
	for k, t := range tags {
		subs = append(subs, reqs[t&0xffffffff])
		if k == 0 || t>>32 != tags[k-1]>>32 {
			dests = append(dests, batchDest{addr: table.Instances[t>>32].Addr, lo: k})
		}
		dests[len(dests)-1].hi = k + 1
	}
	sb.subs, sb.dests = subs, dests

	// One envelope per destination: all of them go out first, then each
	// is awaited (and retried) in turn.
	for j := range dests {
		d := &dests[j]
		d.call, d.err = c.startBatch(d.addr, subs[d.lo:d.hi], deadline, nil)
	}
	for j := range dests {
		d := &dests[j]
		if d.err != nil {
			continue // stragglers re-route below
		}
		rs, err := c.callBatchWithBackoff(d.addr, subs[d.lo:d.hi], deadline, &d.call)
		if err != nil {
			continue // destination down: stragglers re-route below
		}
		for k, resp := range rs {
			i := int(tags[d.lo+k] & 0xffffffff)
			switch resp.Status {
			case wire.StatusWrongOwner:
				c.metrics.wrongOwner.Inc()
				if t, terr := ring.DecodeTable(resp.Table); terr == nil {
					c.adoptTable(t)
				}
			case wire.StatusMigrating, wire.StatusBusy:
				// Straggler path follows the redirect / backs off.
			default:
				err, _ := statusToErr(reqs[i].Op, resp)
				results[i] = BatchResult{Value: resp.Value, Err: err}
				settled[i] = true
			}
			wire.PutResponse(resp)
		}
	}

	// Re-route whatever the fast path left unsettled, one op at a
	// time in input order, under the batch's remaining budget. The
	// per-op loop handles table refresh, migration redirects, replica
	// failover, and failure reporting.
	for i := range reqs {
		if settled[i] {
			continue
		}
		resp, err := c.doRoutedDeadline(reqs[i], deadline)
		if errors.Is(err, ErrUnavailable) {
			c.metrics.unavailable.Inc()
		}
		r := BatchResult{Err: err}
		if resp != nil {
			r.Value = resp.Value
			wire.PutResponse(resp)
		}
		results[i] = r
	}
	return results, nil
}

// startBatch clears one envelope attempt to addr with preflight,
// stamps the remaining budget on every sub-request, and starts it.
func (c *Client) startBatch(addr string, reqs []*wire.Request, deadline time.Time, lastErr error) (transport.Pending, error) {
	budget, err := c.preflight(addr, deadline, lastErr)
	if err != nil {
		return transport.Pending{}, err
	}
	for _, r := range reqs {
		r.Budget = budget
	}
	return transport.StartBatch(c.caller, addr, reqs), nil
}

// callBatchWithBackoff is callWithBackoff for a batched envelope
// whose first attempt p is already in flight: the same per-endpoint
// circuit breaker, full-jitter retries for unreachable destinations,
// and busy-retry handling, with every retry started through startBatch
// (which restamps the remaining budget on every sub-request). A shed
// envelope comes back as StatusBusy fanned out to every sub-slot, so
// "all sub-responses busy" is the batch analogue of a single busy
// response and is retried here without tripping the breaker.
func (c *Client) callBatchWithBackoff(addr string, reqs []*wire.Request, deadline time.Time, p *transport.Pending) ([]*wire.Response, error) {
	var lastErr error
	for i := 0; ; i++ {
		late := expired(deadline)
		rs, err := p.WaitBatch()
		if err == nil {
			c.breaker.success(addr)
			c.observeEpoch(addr, maxRespEpoch(rs))
			allBusy := len(rs) > 0
			for _, r := range rs {
				if r.Status != wire.StatusBusy {
					allBusy = false
					break
				}
			}
			if !allBusy || i >= c.cfg.OpRetries {
				return rs, nil
			}
			c.metrics.busyRetries.Inc()
			d := c.backoff(i)
			// Sub-responses can carry distinct hints (per-tenant
			// admission sheds each slot with its own bucket's wait);
			// honoring anything less than the largest would retry the
			// whole envelope into a still-closed gate.
			for _, r := range rs {
				if hint := time.Duration(r.RetryAfter); hint > d {
					d = hint
				}
			}
			c.sleepBounded(d, deadline)
		} else {
			c.strike(addr, err, late)
			lastErr = err
			if i >= c.cfg.OpRetries {
				return nil, lastErr
			}
			c.metrics.retries.Inc()
			c.sleepBounded(c.backoff(i), deadline)
		}
		if *p, err = c.startBatch(addr, reqs, deadline, lastErr); err != nil {
			return nil, err
		}
	}
}
