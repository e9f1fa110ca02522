// Package cassring implements the Cassandra-style baseline the paper
// compares ZHT against on the HEC-Cluster (Figures 8 and 10).
//
// The paper attributes Cassandra's higher latency and poorer
// scalability to its logarithmic routing: "Cassandra has to take care
// of a logarithmic-routing-time dynamic member list and ZHT uses
// constant routing" (§IV.C). This baseline reproduces exactly that
// structural cost:
//
//   - nodes sit on a consistent-hash ring and maintain Chord-style
//     finger tables (successors at power-of-two distances) instead of
//     a complete membership table;
//   - a client sends each request to a random coordinator node, which
//     forwards it greedily by finger table until it reaches the owner
//     — O(log N) network hops per operation;
//   - mutations are persisted to a commit log (NoVoHT) before being
//     acknowledged, and the store is "always writable": writes are
//     accepted by the owner unconditionally and conflicts are
//     timestamp-resolved at read time (last-write-wins), mirroring
//     Cassandra's deferred consistency.
package cassring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"zht/internal/hashing"
	"zht/internal/novoht"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Errors returned by the client.
var (
	ErrNotFound = errors.New("cassring: not found")
	// ErrHopLimit reports a routing loop or an inconsistent ring.
	ErrHopLimit = errors.New("cassring: hop limit exceeded")
)

// maxHops bounds request forwarding; log2(N) plus slack.
const maxHops = 64

// Node is one ring member.
type Node struct {
	token    uint64 // position on the ring
	addr     string
	store    storage.KV
	caller   transport.Caller
	hashf    hashing.Func
	replicas int

	ringMu sync.RWMutex
	ring   []member // full sorted ring (for finger construction)
	finger []member // fingers at power-of-two token distances

	mu   sync.Mutex
	hops uint64 // total forwarding hops served (observability)
}

type member struct {
	token uint64
	addr  string
}

// Options configures a cluster.
type Options struct {
	// DataDir persists each node's commit log; empty = memory only.
	DataDir string
	// Replicas writes each pair to this many successor nodes
	// (besides the owner). 0 = none.
	Replicas int
}

// Cluster is a convenience handle over a set of nodes.
type Cluster struct {
	Nodes  []*Node
	opts   Options
	listen func(addr string, h transport.Handler) (transport.Listener, error)
	caller transport.Caller
	nextID int
}

// NewCluster creates n nodes with evenly spaced tokens, registers
// them on listen, and wires them with caller.
func NewCluster(n int, opts Options, listen func(addr string, h transport.Handler) (transport.Listener, error), caller transport.Caller) (*Cluster, error) {
	if n <= 0 {
		return nil, errors.New("cassring: need at least one node")
	}
	members := make([]member, n)
	for i := 0; i < n; i++ {
		members[i] = member{
			// Even token spacing mirrors well-balanced vnode rings.
			token: uint64(i) * (^uint64(0) / uint64(n)),
			addr:  fmt.Sprintf("cass-%04d", i),
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].token < members[j].token })
	c := &Cluster{opts: opts, listen: listen, caller: caller, nextID: n}
	for i := range members {
		sopts := novoht.Options{}
		if opts.DataDir != "" {
			sopts.Path = fmt.Sprintf("%s/cass-%04d.log", opts.DataDir, i)
		}
		st, err := novoht.Open(sopts)
		if err != nil {
			return nil, err
		}
		nd := &Node{
			token:    members[i].token,
			addr:     members[i].addr,
			ring:     members,
			store:    st,
			caller:   caller,
			hashf:    hashing.Default,
			replicas: opts.Replicas,
		}
		nd.buildFingers()
		if _, err := listen(nd.addr, nd.Handle); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	return c, nil
}

// setRing atomically installs a new ring view and rebuilds fingers
// (Cassandra learns ring changes via gossip; this in-process baseline
// installs the converged view directly).
func (n *Node) setRing(ring []member) {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	n.ring = ring
	n.finger = n.finger[:0]
	seen := map[string]bool{}
	for k := 0; k < 64; k++ {
		target := n.token + 1<<k // wraps naturally
		m := successorIn(ring, target)
		if m.addr != n.addr && !seen[m.addr] {
			n.finger = append(n.finger, m)
			seen[m.addr] = true
		}
	}
	sort.Slice(n.finger, func(i, j int) bool { return n.finger[i].token < n.finger[j].token })
}

// buildFingers rebuilds fingers from the current ring.
func (n *Node) buildFingers() { n.setRing(n.ring) }

// successorIn returns the member of ring owning token t.
func successorIn(ring []member, t uint64) member {
	i := sort.Search(len(ring), func(i int) bool { return ring[i].token >= t })
	if i == len(ring) {
		i = 0
	}
	return ring[i]
}

// successorOf returns the ring member owning token t (first member
// clockwise at or after t).
func (n *Node) successorOf(t uint64) member {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return successorIn(n.ring, t)
}

// owns reports whether this node is the owner of token t.
func (n *Node) owns(t uint64) bool { return n.successorOf(t).addr == n.addr }

// nextHopTo picks the finger closest to (but not past) the owner of
// t — greedy Chord routing, halving the remaining distance each hop.
func (n *Node) nextHopTo(t uint64) member {
	ownerTok := n.successorOf(t).token
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	best := member{}
	bestDist := ^uint64(0)
	for _, f := range n.finger {
		// Distance from finger to owner, measured clockwise.
		d := ownerTok - f.token // wraps
		if d < bestDist {
			bestDist = d
			best = f
		}
	}
	return best
}

// Handle implements transport.Handler. Requests carry the key's token
// implicitly (recomputed per hop); Hop counts forwards.
func (n *Node) Handle(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpInsert, wire.OpLookup, wire.OpRemove:
	case wire.OpPing:
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpReplicate:
		return n.apply(req)
	default:
		return &wire.Response{Status: wire.StatusError, Err: "cassring: unsupported op (no append — Table 1)"}
	}
	t := n.hashf(req.Key)
	if n.owns(t) {
		resp := n.apply(req)
		if resp.Status == wire.StatusOK && req.Op != wire.OpLookup {
			n.replicate(t, req)
		}
		return resp
	}
	if req.Hop >= maxHops {
		return &wire.Response{Status: wire.StatusError, Err: ErrHopLimit.Error()}
	}
	// Forward one hop toward the owner; the call may come back around
	// the ring to this node, so the connection must stay readable.
	req.Detach()
	n.mu.Lock()
	n.hops++
	n.mu.Unlock()
	fwd := *req
	fwd.Hop = req.Hop + 1
	next := n.nextHopTo(t)
	resp, err := n.caller.Call(next.addr, &fwd)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return resp
}

// apply executes the op on the local store. Values are stored with a
// timestamp prefix; reads resolve last-write-wins.
func (n *Node) apply(req *wire.Request) *wire.Response {
	op := req.Op
	if op == wire.OpReplicate {
		op = wire.Op(req.Aux[0])
	}
	switch op {
	case wire.OpInsert:
		cur, ok, err := n.store.Get(req.Key)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		incoming := req.Value
		if ok && decodeTS(cur) > decodeTS(incoming) {
			// Stale write: accepted (always writable) but loses
			// the timestamp resolution.
			return &wire.Response{Status: wire.StatusOK}
		}
		if err := n.store.Put(req.Key, incoming); err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpLookup:
		v, ok, err := n.store.Get(req.Key)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		if !ok {
			return &wire.Response{Status: wire.StatusNotFound}
		}
		return &wire.Response{Status: wire.StatusOK, Value: v}
	case wire.OpRemove:
		ok, err := n.store.RemoveV(req.Key, 0)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		if !ok {
			return &wire.Response{Status: wire.StatusNotFound}
		}
		return &wire.Response{Status: wire.StatusOK}
	}
	return &wire.Response{Status: wire.StatusError, Err: "cassring: bad op"}
}

// replicate copies the mutation to successor nodes.
func (n *Node) replicate(t uint64, req *wire.Request) {
	if n.replicas <= 0 {
		return
	}
	req.Detach() // the legs call other nodes
	n.ringMu.RLock()
	ring := n.ring
	n.ringMu.RUnlock()
	for i := range ring {
		if ring[i].addr != n.addr {
			continue
		}
		for s := 1; s <= n.replicas && s < len(ring); s++ {
			succ := ring[(i+s)%len(ring)]
			fwd := *req
			fwd.Op = wire.OpReplicate
			fwd.Aux = []byte{byte(req.Op)}
			n.caller.Call(succ.addr, &fwd)
		}
		break
	}
}

// Hops reports forwarding hops served by this node.
func (n *Node) Hops() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hops
}

// Join adds a node with a token bisecting the largest ring gap
// (dynamic membership, which Table 1 credits Cassandra with). Keys
// the new node now owns are handed off from its successor, then every
// node installs the converged ring view (standing in for gossip
// convergence).
func (c *Cluster) Join() (*Node, error) {
	if len(c.Nodes) == 0 {
		return nil, errors.New("cassring: empty cluster")
	}
	old := c.Nodes[0].ringView() // all nodes share the same converged view
	// Find the largest clockwise gap.
	bestGap := uint64(0)
	newToken := uint64(0)
	for i := range old {
		next := old[(i+1)%len(old)].token
		gap := next - old[i].token // wraps for the last interval
		if i == len(old)-1 {
			gap = old[0].token - old[i].token
		}
		if gap > bestGap {
			bestGap = gap
			newToken = old[i].token + gap/2
		}
	}
	addr := fmt.Sprintf("cass-%04d", c.nextID)
	c.nextID++
	sopts := novoht.Options{}
	if c.opts.DataDir != "" {
		sopts.Path = fmt.Sprintf("%s/%s.log", c.opts.DataDir, addr)
	}
	st, err := novoht.Open(sopts)
	if err != nil {
		return nil, err
	}
	nd := &Node{
		token: newToken, addr: addr, store: st,
		caller: c.caller, hashf: hashing.Default, replicas: c.opts.Replicas,
	}
	ring := append(append([]member(nil), old...), member{token: newToken, addr: addr})
	sort.Slice(ring, func(i, j int) bool { return ring[i].token < ring[j].token })
	nd.setRing(ring)
	if _, err := c.listen(addr, nd.Handle); err != nil {
		st.Close()
		return nil, err
	}
	// Hand off: the old owner of newToken transfers the keys the
	// newcomer now owns.
	oldOwner := c.nodeByAddr(successorIn(old, newToken).addr)
	if oldOwner != nil {
		var moved []string
		oldOwner.store.ForEachV(func(k string, v []byte, _ uint64) error {
			if successorIn(ring, oldOwner.hashf(k)).addr == addr {
				if err := nd.store.Put(k, v); err != nil {
					return err
				}
				moved = append(moved, k)
			}
			return nil
		})
		for _, k := range moved {
			oldOwner.store.RemoveV(k, 0)
		}
	}
	// Converge every node's view.
	for _, n := range c.Nodes {
		n.setRing(ring)
	}
	c.Nodes = append(c.Nodes, nd)
	return nd, nil
}

func (n *Node) ringView() []member {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

func (c *Cluster) nodeByAddr(addr string) *Node {
	for _, n := range c.Nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// Close closes all node stores.
func (c *Cluster) Close() error {
	var first error
	for _, nd := range c.Nodes {
		if err := nd.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TotalHops sums forwarding hops over the cluster.
func (c *Cluster) TotalHops() uint64 {
	var h uint64
	for _, nd := range c.Nodes {
		h += nd.Hops()
	}
	return h
}

// Client talks to the cluster through random coordinators.
type Client struct {
	addrs  []string
	caller transport.Caller
	rngMu  sync.Mutex
	rng    *rand.Rand
	tsMu   sync.Mutex
	lastTS uint64
}

// NewClient creates a cluster client.
func (c *Cluster) NewClient(caller transport.Caller) *Client {
	addrs := make([]string, len(c.Nodes))
	for i, nd := range c.Nodes {
		addrs[i] = nd.addr
	}
	return &Client{addrs: addrs, caller: caller, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

func (c *Client) coordinator() string {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.addrs[c.rng.Intn(len(c.addrs))]
}

// Put writes key=val with a client timestamp (last-write-wins).
func (c *Client) Put(key string, val []byte) error {
	resp, err := c.caller.Call(c.coordinator(), &wire.Request{
		Op: wire.OpInsert, Key: key, Value: c.stamp(val),
	})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("cassring: put: %s", resp.Err)
	}
	return nil
}

// Get reads key's value.
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.caller.Call(c.coordinator(), &wire.Request{Op: wire.OpLookup, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return unstamp(resp.Value), nil
	case wire.StatusNotFound:
		return nil, ErrNotFound
	}
	return nil, fmt.Errorf("cassring: get: %s", resp.Err)
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	resp, err := c.caller.Call(c.coordinator(), &wire.Request{Op: wire.OpRemove, Key: key})
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	}
	return fmt.Errorf("cassring: delete: %s", resp.Err)
}

// stamp prefixes val with a monotone timestamp.
func (c *Client) stamp(val []byte) []byte {
	c.tsMu.Lock()
	ts := uint64(time.Now().UnixNano())
	if ts <= c.lastTS {
		ts = c.lastTS + 1
	}
	c.lastTS = ts
	c.tsMu.Unlock()
	out := make([]byte, 8+len(val))
	binary.BigEndian.PutUint64(out, ts)
	copy(out[8:], val)
	return out
}

func decodeTS(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func unstamp(v []byte) []byte {
	if len(v) < 8 {
		return v
	}
	return v[8:]
}
