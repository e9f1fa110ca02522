// Package cmpi implements a C-MPI-equivalent baseline: a Kademlia
// distributed hash table (paper §II and Table 1).
//
// C-MPI "is based on new implementations of the Kademlia (with log(N)
// routing time) distributed hash table" with "no support for data
// replication, data persistence, or fault tolerance" — it targets the
// same batch HEC environments as ZHT but routes iteratively through
// k-buckets instead of holding full membership. This reimplementation
// preserves exactly those structural properties:
//
//   - 64-bit node IDs, XOR distance metric, k-buckets populated at
//     bootstrap from the batch node list (no churn, as in C-MPI's
//     MPI-world deployments);
//   - iterative lookups: the requester repeatedly asks the closest
//     known node for still-closer nodes, converging in O(log N)
//     steps;
//   - volatile in-memory storage, single copy, static membership.
//
// C-MPI's MPI transport is replaced by this repo's transport layer;
// the paper's criticism of that choice (an MPI fault kills the whole
// job) concerns fault semantics, not performance shape.
package cmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"zht/internal/hashing"
	"zht/internal/transport"
	"zht/internal/wire"
)

// K is the Kademlia bucket width (entries kept per distance class).
const K = 8

// Alpha is the lookup concurrency; C-MPI-era implementations used
// sequential (α=1) iterative lookups.
const Alpha = 1

// Errors returned by the client.
var (
	ErrNotFound   = errors.New("cmpi: not found")
	ErrNoProgress = errors.New("cmpi: lookup made no progress")
)

// contact is a routing-table entry.
type contact struct {
	id   uint64
	addr string
}

// Node is one Kademlia DHT node.
type Node struct {
	self    contact
	buckets [64][]contact // buckets[i] holds contacts at XOR distance with MSB i

	mu    sync.RWMutex
	store map[string][]byte

	// hops counts FIND_NODE requests served (hop observability for
	// the log(N) routing tests).
	hops  uint64
	hopMu sync.Mutex
}

// NodeID derives a node's DHT ID from its address.
func NodeID(addr string) uint64 { return hashing.Default("cmpi-node:" + addr) }

// NewNode creates a node and fills its k-buckets from the bootstrap
// member list (the batch scheduler's node list — static membership).
func NewNode(addr string, allAddrs []string) *Node {
	n := &Node{
		self:  contact{id: NodeID(addr), addr: addr},
		store: make(map[string][]byte),
	}
	for _, a := range allAddrs {
		if a == addr {
			continue
		}
		n.insertContact(contact{id: NodeID(a), addr: a})
	}
	return n
}

// bucketIndex classifies a contact by the most significant differing
// bit of the XOR distance.
func (n *Node) bucketIndex(id uint64) int {
	d := n.self.id ^ id
	if d == 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(d)
}

func (n *Node) insertContact(c contact) {
	b := n.bucketIndex(c.id)
	if len(n.buckets[b]) >= K {
		return // bucket full: Kademlia keeps the oldest (stable) entries
	}
	n.buckets[b] = append(n.buckets[b], c)
}

// closest returns up to k known contacts closest to target (including
// self).
func (n *Node) closest(target uint64, k int) []contact {
	var all []contact
	all = append(all, n.self)
	for _, b := range n.buckets {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].id^target < all[j].id^target
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Handle implements transport.Handler.
//
// Protocol mapping onto the shared wire schema:
//   - OpLookup with Partition=findNode: FIND_NODE; Key is the decimal
//     target ID; response Value is an encoded contact list.
//   - OpInsert: STORE.
//   - OpLookup (Partition=0): FIND_VALUE (local check only; routing
//     is iterative at the client).
//   - OpRemove: local delete.
func (n *Node) Handle(req *wire.Request) *wire.Response {
	switch {
	case req.Op == wire.OpLookup && req.Partition == findNodeMark:
		n.hopMu.Lock()
		n.hops++
		n.hopMu.Unlock()
		var target uint64
		fmt.Sscanf(req.Key, "%d", &target)
		return wire.Reply(wire.StatusOK, encodeContacts(n.closest(target, K)))
	case req.Op == wire.OpInsert:
		n.mu.Lock()
		n.store[req.Key] = append([]byte(nil), req.Value...)
		n.mu.Unlock()
		return wire.Reply(wire.StatusOK, nil)
	case req.Op == wire.OpLookup:
		n.mu.RLock()
		v, ok := n.store[req.Key]
		n.mu.RUnlock()
		if !ok {
			return wire.Reply(wire.StatusNotFound, nil)
		}
		return wire.Reply(wire.StatusOK, append([]byte(nil), v...))
	case req.Op == wire.OpRemove:
		n.mu.Lock()
		_, ok := n.store[req.Key]
		delete(n.store, req.Key)
		n.mu.Unlock()
		if !ok {
			return wire.Reply(wire.StatusNotFound, nil)
		}
		return wire.Reply(wire.StatusOK, nil)
	case req.Op == wire.OpPing:
		return wire.Reply(wire.StatusOK, nil)
	}
	return wire.ErrorReply("cmpi: unsupported op (no append/persistence/replication — Table 1)")
}

// findNodeMark distinguishes FIND_NODE from FIND_VALUE on OpLookup.
const findNodeMark = -64

// Keys reports how many pairs this node stores.
func (n *Node) Keys() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.store)
}

// FindNodeServed reports FIND_NODE requests served by this node.
func (n *Node) FindNodeServed() uint64 {
	n.hopMu.Lock()
	defer n.hopMu.Unlock()
	return n.hops
}

func encodeContacts(cs []contact) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(cs)))
	for _, c := range cs {
		buf = binary.AppendUvarint(buf, c.id)
		buf = binary.AppendUvarint(buf, uint64(len(c.addr)))
		buf = append(buf, c.addr...)
	}
	return buf
}

func decodeContacts(b []byte) ([]contact, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 || cnt > 1024 {
		return nil, errors.New("cmpi: bad contact list")
	}
	b = b[n:]
	out := make([]contact, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		id, n1 := binary.Uvarint(b)
		if n1 <= 0 {
			return nil, errors.New("cmpi: bad contact id")
		}
		b = b[n1:]
		l, n2 := binary.Uvarint(b)
		if n2 <= 0 || uint64(len(b[n2:])) < l {
			return nil, errors.New("cmpi: bad contact addr")
		}
		out = append(out, contact{id: id, addr: string(b[n2 : n2+int(l)])})
		b = b[n2+int(l):]
	}
	return out, nil
}

// Client performs iterative Kademlia lookups.
type Client struct {
	seeds  []contact
	caller transport.Caller
	hashf  hashing.Func
}

// NewClient creates a client knowing only a few seed nodes (it
// discovers the rest per lookup, as Kademlia does).
func NewClient(seedAddrs []string, caller transport.Caller) (*Client, error) {
	if len(seedAddrs) == 0 {
		return nil, errors.New("cmpi: need at least one seed")
	}
	c := &Client{caller: caller, hashf: hashing.Default}
	for _, a := range seedAddrs {
		c.seeds = append(c.seeds, contact{id: NodeID(a), addr: a})
	}
	return c, nil
}

// lookupOwner iteratively converges on the node closest to target,
// returning it and the number of FIND_NODE round trips taken.
func (c *Client) lookupOwner(target uint64) (contact, int, error) {
	best := c.seeds[0]
	for _, s := range c.seeds[1:] {
		if s.id^target < best.id^target {
			best = s
		}
	}
	steps := 0
	for {
		resp, err := c.caller.Call(best.addr, &wire.Request{
			Op: wire.OpLookup, Partition: findNodeMark,
			Key: fmt.Sprintf("%d", target),
		})
		if err != nil {
			return contact{}, steps, err
		}
		steps++
		if resp.Status != wire.StatusOK {
			return contact{}, steps, fmt.Errorf("cmpi: find_node: %s", resp.Err)
		}
		cs, err := decodeContacts(resp.Value)
		if err != nil {
			return contact{}, steps, err
		}
		improved := false
		for _, cand := range cs {
			if cand.id^target < best.id^target {
				best = cand
				improved = true
			}
		}
		if !improved {
			return best, steps, nil // converged: best is the owner
		}
		if steps > 64 {
			return contact{}, steps, ErrNoProgress
		}
	}
}

// Put stores val at the node closest to the key.
func (c *Client) Put(key string, val []byte) error {
	owner, _, err := c.lookupOwner(c.hashf(key))
	if err != nil {
		return err
	}
	resp, err := c.caller.Call(owner.addr, &wire.Request{Op: wire.OpInsert, Key: key, Value: val})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("cmpi: store: %s", resp.Err)
	}
	return nil
}

// Get fetches the value for key.
func (c *Client) Get(key string) ([]byte, error) {
	owner, _, err := c.lookupOwner(c.hashf(key))
	if err != nil {
		return nil, err
	}
	resp, err := c.caller.Call(owner.addr, &wire.Request{Op: wire.OpLookup, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return resp.Value, nil
	case wire.StatusNotFound:
		return nil, ErrNotFound
	}
	return nil, fmt.Errorf("cmpi: find_value: %s", resp.Err)
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	owner, _, err := c.lookupOwner(c.hashf(key))
	if err != nil {
		return err
	}
	resp, err := c.caller.Call(owner.addr, &wire.Request{Op: wire.OpRemove, Key: key})
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	}
	return fmt.Errorf("cmpi: delete: %s", resp.Err)
}

// LookupSteps exposes the iterative hop count for a key (routing
// shape tests).
func (c *Client) LookupSteps(key string) (int, error) {
	_, steps, err := c.lookupOwner(c.hashf(key))
	return steps, err
}

// Cluster wires n nodes over a transport.
type Cluster struct {
	Nodes []*Node
	Addrs []string
}

// NewCluster starts n Kademlia nodes.
func NewCluster(n int, listen func(addr string, h transport.Handler) (transport.Listener, error)) (*Cluster, error) {
	if n <= 0 {
		return nil, errors.New("cmpi: need at least one node")
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("cmpi-%04d", i)
	}
	c := &Cluster{Addrs: addrs}
	for _, a := range addrs {
		nd := NewNode(a, addrs)
		if _, err := listen(a, nd.Handle); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	return c, nil
}
