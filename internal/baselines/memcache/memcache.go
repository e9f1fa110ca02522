// Package memcache implements a Memcached-equivalent in-memory
// key/value cache, the baseline the paper compares ZHT against on the
// Blue Gene/P and the HEC-Cluster (Figures 7–11).
//
// Faithful to the system the paper describes (§II): purely in-memory
// (no persistence), no replication, no dynamic membership, strict
// size limits (250-byte keys, 1 MiB values), and LRU eviction under a
// configurable memory budget. Clients hash keys over a static server
// list client-side, so routing is single-hop like ZHT — the
// performance difference the paper measures comes from the server
// internals, not routing.
package memcache

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"zht/internal/hashing"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Protocol limits, matching Memcached's documented restrictions.
const (
	MaxKeyLen   = 250
	MaxValueLen = 1 << 20
)

// Errors returned by the client.
var (
	ErrNotFound = errors.New("memcache: cache miss")
	ErrTooLarge = errors.New("memcache: key or value exceeds size limit")
)

// Server is one cache node.
type Server struct {
	mu      sync.Mutex
	items   map[string]*list.Element
	lru     *list.List // front = most recently used
	memUse  int64
	memCap  int64 // 0 = unbounded
	hits    uint64
	misses  uint64
	evicted uint64
}

type item struct {
	key string
	val []byte
}

// NewServer creates a cache node with the given memory budget in
// bytes (0 = unbounded).
func NewServer(memCap int64) *Server {
	return &Server{items: make(map[string]*list.Element), lru: list.New(), memCap: memCap}
}

// Handle implements transport.Handler: set/get/delete only (Table 1:
// Memcached supports no append, no persistence).
func (s *Server) Handle(req *wire.Request) *wire.Response {
	if len(req.Key) > MaxKeyLen || len(req.Value) > MaxValueLen {
		return wire.ErrorReply(ErrTooLarge.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case wire.OpInsert:
		s.setLocked(req.Key, req.Value)
		return wire.Reply(wire.StatusOK, nil)
	case wire.OpLookup:
		el, ok := s.items[req.Key]
		if !ok {
			s.misses++
			return wire.Reply(wire.StatusNotFound, nil)
		}
		s.hits++
		s.lru.MoveToFront(el)
		return wire.Reply(wire.StatusOK, append([]byte(nil), el.Value.(*item).val...))
	case wire.OpRemove:
		el, ok := s.items[req.Key]
		if !ok {
			return wire.Reply(wire.StatusNotFound, nil)
		}
		s.removeLocked(el)
		return wire.Reply(wire.StatusOK, nil)
	case wire.OpPing:
		return wire.Reply(wire.StatusOK, nil)
	}
	return wire.ErrorReply("memcache: unsupported op " + req.Op.String())
}

func (s *Server) setLocked(key string, val []byte) {
	if el, ok := s.items[key]; ok {
		it := el.Value.(*item)
		s.memUse += int64(len(val)) - int64(len(it.val))
		it.val = append(it.val[:0], val...)
		s.lru.MoveToFront(el)
	} else {
		it := &item{key: key, val: append([]byte(nil), val...)}
		s.items[key] = s.lru.PushFront(it)
		s.memUse += int64(len(key) + len(val))
	}
	for s.memCap > 0 && s.memUse > s.memCap && s.lru.Len() > 0 {
		s.removeLocked(s.lru.Back())
		s.evicted++
	}
}

func (s *Server) removeLocked(el *list.Element) {
	it := el.Value.(*item)
	s.lru.Remove(el)
	delete(s.items, it.key)
	s.memUse -= int64(len(it.key) + len(it.val))
}

// Stats reports server counters.
type Stats struct {
	Items   int
	Bytes   int64
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Items: len(s.items), Bytes: s.memUse, Hits: s.hits, Misses: s.misses, Evicted: s.evicted}
}

// Client shards keys over a static server list (client-side
// consistent hashing, as Memcached clients do).
type Client struct {
	addrs  []string
	caller transport.Caller
	hashf  hashing.Func
}

// NewClient creates a client over the given server addresses.
func NewClient(addrs []string, caller transport.Caller) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("memcache: no servers")
	}
	return &Client{addrs: addrs, caller: caller, hashf: hashing.Default}, nil
}

func (c *Client) pick(key string) string {
	return c.addrs[c.hashf(key)%uint64(len(c.addrs))]
}

// Set stores val under key.
func (c *Client) Set(key string, val []byte) error {
	if len(key) > MaxKeyLen || len(val) > MaxValueLen {
		return ErrTooLarge
	}
	resp, err := c.caller.Call(c.pick(key), &wire.Request{Op: wire.OpInsert, Key: key, Value: val})
	return checkResp(resp, err)
}

// Get fetches the value cached under key.
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.caller.Call(c.pick(key), &wire.Request{Op: wire.OpLookup, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return resp.Value, nil
	case wire.StatusNotFound:
		return nil, ErrNotFound
	}
	return nil, fmt.Errorf("memcache: get: %s", resp.Err)
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	resp, err := c.caller.Call(c.pick(key), &wire.Request{Op: wire.OpRemove, Key: key})
	if err != nil {
		return err
	}
	if resp.Status == wire.StatusNotFound {
		return ErrNotFound
	}
	return checkResp(resp, nil)
}

func checkResp(resp *wire.Response, err error) error {
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("memcache: %s", resp.Err)
	}
	return nil
}
