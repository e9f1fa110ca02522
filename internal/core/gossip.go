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
// gap. The manager's delta broadcast remains as a best-effort latency
// hint; correctness no longer depends on it reaching every node.

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

// gossipPeers lists the alive peers this instance can pull membership
// state from.
func (in *Instance) gossipPeers() []string {
	t := in.tableRef()
	out := make([]string, 0, len(t.Instances))
	for i, p := range t.Instances {
		if p.ID != in.self.ID && t.Status[i] == ring.Alive {
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

// gossipPull fetches membership state from addr and applies it,
// reporting whether the local epoch advanced. It is the Pull callback
// of the instance's gossip service.
func (in *Instance) gossipPull(addr string) bool {
	resp, err := in.caller.Call(addr, &wire.Request{Op: wire.OpDeltaPull, Epoch: in.Epoch()})
	if err != nil || resp.Status != wire.StatusOK {
		return false
	}
	frames, tableEnc, err := gossip.DecodePull(resp.Value)
	if err != nil {
		return false
	}
	if tableEnc != nil {
		t, err := ring.DecodeTable(tableEnc)
		if err != nil {
			return false
		}
		return in.adoptTableIfNewer(t)
	}
	advanced := false
	for _, f := range frames {
		d, err := ring.DecodeDelta(f)
		if err != nil {
			break
		}
		if d.FromEpoch < in.Epoch() {
			continue // already applied (raced another update)
		}
		if _, err := in.applyDelta(d, f); err != nil {
			break // gap or concurrent change; a later round re-pulls
		}
		advanced = true
	}
	return advanced
}

// applyDelta applies a membership delta on top of the current table,
// records its encoded frame for peers' catch-up pulls, and reconciles
// local state with the new table. Every delta path — broadcast
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
	in.mu.Unlock()
	in.deltaLog.Record(d.FromEpoch, frame)
	in.met.epoch.Set(int64(nt.Epoch))
	in.afterTableChange(old, nt)
	return nt, nil
}

// adoptTableIfNewer replaces the local table when t is strictly newer,
// reporting whether it did. Adoption skips epochs, leaving a gap in
// the delta log on purpose: peers behind the gap must fetch the full
// table too.
func (in *Instance) adoptTableIfNewer(t *ring.Table) bool {
	in.mu.Lock()
	old := in.tableRef()
	if t.Epoch <= old.Epoch {
		in.mu.Unlock()
		return false
	}
	in.table.Store(t)
	in.mu.Unlock()
	in.met.epoch.Set(int64(t.Epoch))
	in.afterTableChange(old, t)
	return true
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

// gossipPeers lists alive instances the client can pull from.
func (c *Client) gossipPeers() []string {
	t := c.snapshot()
	out := make([]string, 0, len(t.Instances))
	for i, p := range t.Instances {
		if t.Status[i] == ring.Alive {
			out = append(out, p.Addr)
		}
	}
	return out
}

// gossipPull fetches membership state from addr into the client's
// table, reporting whether its epoch advanced. Deltas apply to the last
// table a server issued, never to local failure marks.
func (c *Client) gossipPull(addr string) bool {
	before := c.issued().Epoch
	resp, err := c.caller.Call(addr, &wire.Request{Op: wire.OpDeltaPull, Epoch: before})
	if err != nil || resp.Status != wire.StatusOK {
		return false
	}
	frames, tableEnc, err := gossip.DecodePull(resp.Value)
	if err != nil {
		return false
	}
	if tableEnc != nil {
		t, err := ring.DecodeTable(tableEnc)
		if err != nil {
			return false
		}
		c.adoptTable(t)
		return c.issued().Epoch > before
	}
	for _, f := range frames {
		d, err := ring.DecodeDelta(f)
		if err != nil {
			break
		}
		c.mu.Lock()
		cur := c.issued()
		if d.FromEpoch < cur.Epoch {
			c.mu.Unlock()
			continue
		}
		nt, err := cur.Apply(d)
		if err != nil {
			c.mu.Unlock()
			break
		}
		c.adoptLocked(nt)
		c.mu.Unlock()
	}
	return c.issued().Epoch > before
}
