package core

import (
	"zht/internal/gossip"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Gossip-driven membership (DESIGN.md §10): instances and clients
// piggyback their ring epoch on normal traffic. Whoever observes a
// newer epoch pulls the missing deltas (wire.OpDeltaPull) from the
// peer it just talked to, replaying them from the peer's delta log —
// or adopting the peer's full table when the log no longer covers the
// gap. A manager announces a change only to the instances whose copies
// it moves (Instance.announce); gossip is how every other instance and
// every client learns of it.

// epochCaller wraps an instance's transport so every outgoing request
// carries the instance's epoch and every response's epoch feeds the
// gossip staleness detector. Requests that already carry an epoch (a
// client's, forwarded through replication) keep it: any epoch is a
// valid staleness probe, and the origin's is at most as fresh as ours.
type epochCaller struct {
	inner transport.Caller
	in    *Instance
}

func (e *epochCaller) stamp(req *wire.Request) *wire.Request {
	if req.Epoch != 0 {
		return req
	}
	r2 := *req
	r2.Epoch = e.in.Epoch()
	return &r2
}

func (e *epochCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	resp, err := e.inner.Call(addr, e.stamp(req))
	if err == nil {
		e.in.observePeerEpoch(addr, resp.Epoch)
	}
	return resp, err
}

func (e *epochCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	stamped := make([]*wire.Request, len(reqs))
	for i, r := range reqs {
		stamped[i] = e.stamp(r)
	}
	resps, err := e.inner.CallBatch(addr, stamped)
	if err == nil {
		e.in.observePeerEpoch(addr, maxRespEpoch(resps))
	}
	return resps, err
}

func (e *epochCaller) Close() error { return e.inner.Close() }

// maxRespEpoch returns the freshest epoch piggybacked on a batch of
// sub-responses.
func maxRespEpoch(resps []*wire.Response) uint64 {
	var max uint64
	for _, r := range resps {
		if r != nil && r.Epoch > max {
			max = r.Epoch
		}
	}
	return max
}

// observePeerEpoch feeds one piggybacked epoch into the gossip
// service; addr may be empty when the observation came from an inbound
// request whose sender is unknown.
func (in *Instance) observePeerEpoch(addr string, peerEpoch uint64) {
	in.gossip.Observe(addr, peerEpoch)
}

// alivePeers lists the addresses of t's alive instances other than
// self: the fallback sources of a gossip round.
func alivePeers(t *ring.Table, self ring.InstanceID) []string {
	out := make([]string, 0, len(t.Instances))
	for i, p := range t.Instances {
		if p.ID != self && t.Status[i] == ring.Alive {
			out = append(out, p.Addr)
		}
	}
	return out
}

// handleDeltaPull answers a peer's catch-up request: the ordered delta
// frames covering [req.Epoch, ours) when the delta log retains them,
// the full table otherwise.
func (in *Instance) handleDeltaPull(req *wire.Request) *wire.Response {
	cur := in.tableRef()
	if req.Epoch >= cur.Epoch {
		return &wire.Response{Status: wire.StatusOK, Value: gossip.EncodeDeltas(nil)}
	}
	if frames, ok := in.deltaLog.Since(req.Epoch, cur.Epoch); ok {
		return &wire.Response{Status: wire.StatusOK, Value: gossip.EncodeDeltas(frames)}
	}
	in.met.gossipFullTables.Inc()
	return &wire.Response{Status: wire.StatusOK, Value: gossip.EncodeFullTable(ring.EncodeTable(cur))}
}

// pullMembership is the gossip Pull of an instance and of a client: it
// fetches the membership state past epoch() from addr and hands the
// holder a full table to adopt, or each delta to apply in order up to
// the first that fails, reporting whether epoch() advanced.
func pullMembership(caller transport.Caller, addr string, epoch func() uint64,
	adopt func(*ring.Table), apply func(ring.Delta, []byte) error) bool {
	before := epoch()
	resp, err := caller.Call(addr, &wire.Request{Op: wire.OpDeltaPull, Epoch: before})
	if err != nil || resp.Status != wire.StatusOK {
		return false
	}
	frames, tableEnc, err := gossip.DecodePull(resp.Value)
	if err != nil {
		return false
	}
	if tableEnc != nil {
		if t, err := ring.DecodeTable(tableEnc); err == nil {
			adopt(t)
		}
	}
	for _, f := range frames {
		d, err := ring.DecodeDelta(f)
		if err != nil {
			break
		}
		if d.FromEpoch < epoch() {
			continue // already applied (raced another update)
		}
		if apply(d, f) != nil {
			break // gap or concurrent change; a later round re-pulls
		}
	}
	return epoch() > before
}

// gossipPull is the Pull callback of the instance's gossip service.
func (in *Instance) gossipPull(addr string) bool {
	return pullMembership(in.caller, addr, in.Epoch, in.adoptTableIfNewer,
		func(d ring.Delta, f []byte) error {
			_, err := in.applyDelta(d, f)
			return err
		})
}

// applyDelta applies a membership delta on top of the current table,
// records its encoded frame for peers' catch-up pulls, and reconciles
// local state with the new table. Every delta path — announce
// receipt, manager apply, gossip replay — funnels through here so the
// delta log never misses an epoch this instance advanced through.
func (in *Instance) applyDelta(d ring.Delta, frame []byte) (*ring.Table, error) {
	in.mu.Lock()
	old := in.tableRef()
	nt, err := old.Apply(d)
	if err != nil {
		in.mu.Unlock()
		return nil, err
	}
	in.table.Store(nt)
	in.deltaLog.Record(d.FromEpoch, frame) // under mu, as the reset on adoption is
	in.mu.Unlock()
	in.met.epoch.Set(int64(nt.Epoch))
	in.afterTableChange(old, nt)
	return nt, nil
}

// adoptTableIfNewer replaces the local table when t orders after it
// (ring.Table.After): a newer epoch, or the winner of two tables of one
// epoch. Adoption resets the delta log: peers behind t must fetch the
// full table too.
func (in *Instance) adoptTableIfNewer(t *ring.Table) {
	in.mu.Lock()
	old := in.tableRef()
	if !t.After(old) {
		in.mu.Unlock()
		return
	}
	in.table.Store(t)
	in.deltaLog.Reset()
	in.mu.Unlock()
	in.met.epoch.Set(int64(t.Epoch))
	in.afterTableChange(old, t)
}

// Client-side gossip: a standalone client (no co-located instance)
// runs its own pull service so a stale table heals from any response,
// not only from a StatusWrongOwner rejection. Shared clients forward
// observations to their instance, the authoritative table holder.

// observeEpoch feeds a piggybacked response epoch into the client's
// staleness detector.
func (c *Client) observeEpoch(addr string, peerEpoch uint64) {
	if c.shared != nil {
		c.shared.observePeerEpoch(addr, peerEpoch)
		return
	}
	c.gossip.Observe(addr, peerEpoch)
}

// gossipPull is the Pull callback of the client's gossip service.
// Deltas apply to the last table a server issued, never to local
// failure marks.
func (c *Client) gossipPull(addr string) bool {
	return pullMembership(c.caller, addr, func() uint64 { return c.issued().Epoch }, c.adoptTable,
		func(d ring.Delta, _ []byte) error {
			c.mu.Lock()
			defer c.mu.Unlock()
			nt, err := c.issued().Apply(d)
			if err == nil {
				c.adoptLocked(nt)
			}
			return err
		})
}
