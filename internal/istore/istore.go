package istore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"zht/internal/core"
	"zht/internal/transport"
	"zht/internal/wire"
)

// IStore system wiring: chunk servers hold erasure-coded blocks;
// chunk locations and object metadata live in ZHT ("The IStore uses
// ZHT to manage metadata about file chunks", §V.B). At each scale of
// N nodes the IDA is configured to chunk files into N blocks sent to
// N different nodes, matching the paper's Figure 17 setup.

// ChunkServer stores erasure-coded blocks on one node.
type ChunkServer struct {
	mu     sync.RWMutex
	blocks map[string][]byte
}

// NewChunkServer creates an empty chunk server.
func NewChunkServer() *ChunkServer {
	return &ChunkServer{blocks: make(map[string][]byte)}
}

// Handle implements transport.Handler for block put/get/delete.
func (s *ChunkServer) Handle(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpInsert:
		s.mu.Lock()
		s.blocks[req.Key] = append([]byte(nil), req.Value...)
		s.mu.Unlock()
		return wire.Reply(wire.StatusOK, nil)
	case wire.OpLookup:
		s.mu.RLock()
		b, ok := s.blocks[req.Key]
		s.mu.RUnlock()
		if !ok {
			return wire.Reply(wire.StatusNotFound, nil)
		}
		return wire.Reply(wire.StatusOK, append([]byte(nil), b...))
	case wire.OpRemove:
		s.mu.Lock()
		delete(s.blocks, req.Key)
		s.mu.Unlock()
		return wire.Reply(wire.StatusOK, nil)
	case wire.OpPing:
		return wire.Reply(wire.StatusOK, nil)
	}
	return wire.ErrorReply("istore: unsupported op")
}

// Blocks reports how many blocks this server holds.
func (s *ChunkServer) Blocks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// objectMeta is the ZHT record for one stored object.
type objectMeta struct {
	Size   uint64
	K, N   uint16
	Shards []string // shard i lives at Shards[i] under key "<name>#<i>"
}

func encodeObjectMeta(m *objectMeta) []byte {
	buf := []byte{'I', '1'}
	buf = binary.AppendUvarint(buf, m.Size)
	buf = binary.AppendUvarint(buf, uint64(m.K))
	buf = binary.AppendUvarint(buf, uint64(m.N))
	for _, s := range m.Shards {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

var errBadObjectMeta = errors.New("istore: malformed object metadata")

func decodeObjectMeta(b []byte) (*objectMeta, error) {
	if len(b) < 2 || b[0] != 'I' || b[1] != '1' {
		return nil, errBadObjectMeta
	}
	b = b[2:]
	m := &objectMeta{}
	var v uint64
	var n int
	if v, n = binary.Uvarint(b); n <= 0 {
		return nil, errBadObjectMeta
	}
	m.Size = v
	b = b[n:]
	if v, n = binary.Uvarint(b); n <= 0 || v > 255 {
		return nil, errBadObjectMeta
	}
	m.K = uint16(v)
	b = b[n:]
	if v, n = binary.Uvarint(b); n <= 0 || v > 255 {
		return nil, errBadObjectMeta
	}
	m.N = uint16(v)
	b = b[n:]
	for i := 0; i < int(m.N); i++ {
		if v, n = binary.Uvarint(b); n <= 0 || uint64(len(b[n:])) < v {
			return nil, errBadObjectMeta
		}
		m.Shards = append(m.Shards, string(b[n:n+int(v)]))
		b = b[n+int(v):]
	}
	if len(b) != 0 {
		return nil, errBadObjectMeta
	}
	return m, nil
}

// Store is an IStore client handle.
type Store struct {
	meta   *core.Client // ZHT metadata
	codec  *Codec
	nodes  []string // chunk server addresses
	caller transport.Caller
	// ops counts ZHT metadata operations issued (the quantity
	// Figure 17 reports as metadata throughput).
	ops   uint64
	opsMu sync.Mutex
}

// ErrObjectNotFound reports a retrieve of an unknown object.
var ErrObjectNotFound = errors.New("istore: object not found")

// New creates an IStore client: data is dispersed k-of-n over the
// given chunk servers (n = len(nodes)).
func New(meta *core.Client, k int, nodes []string, caller transport.Caller) (*Store, error) {
	codec, err := NewCodec(k, len(nodes))
	if err != nil {
		return nil, err
	}
	return &Store{meta: meta, codec: codec, nodes: nodes, caller: caller}, nil
}

func (s *Store) countOp() {
	s.opsMu.Lock()
	s.ops++
	s.opsMu.Unlock()
}

// MetaOps reports ZHT metadata operations performed.
func (s *Store) MetaOps() uint64 {
	s.opsMu.Lock()
	defer s.opsMu.Unlock()
	return s.ops
}

// Put erasure-codes data into n blocks, stores block i on node i, and
// records the object's metadata in ZHT.
func (s *Store) Put(name string, data []byte) error {
	shards, err := s.codec.Encode(s.codec.Split(data))
	if err != nil {
		return err
	}
	for i, shard := range shards {
		resp, err := s.caller.Call(s.nodes[i], &wire.Request{
			Op: wire.OpInsert, Key: shardKey(name, i), Value: shard,
		})
		if err != nil {
			return fmt.Errorf("istore: store shard %d on %s: %w", i, s.nodes[i], err)
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("istore: store shard %d: %s", i, resp.Err)
		}
	}
	m := &objectMeta{
		Size: uint64(len(data)), K: uint16(s.codec.K()), N: uint16(s.codec.N()),
		Shards: s.nodes,
	}
	s.countOp()
	return s.meta.Insert("istore:"+name, encodeObjectMeta(m))
}

// Get reconstructs an object from any k reachable shards.
func (s *Store) Get(name string) ([]byte, error) {
	s.countOp()
	raw, err := s.meta.Lookup("istore:" + name)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			return nil, ErrObjectNotFound
		}
		return nil, err
	}
	m, err := decodeObjectMeta(raw)
	if err != nil {
		return nil, err
	}
	codec := s.codec
	if int(m.K) != codec.K() || int(m.N) != codec.N() {
		if codec, err = NewCodec(int(m.K), int(m.N)); err != nil {
			return nil, err
		}
	}
	shards := make([][]byte, m.N)
	got := 0
	for i := 0; i < int(m.N) && got < int(m.K); i++ {
		resp, err := s.caller.Call(m.Shards[i], &wire.Request{
			Op: wire.OpLookup, Key: shardKey(name, i),
		})
		if err != nil || resp.Status != wire.StatusOK {
			continue // node down or shard lost: IDA tolerates it
		}
		shards[i] = resp.Value
		got++
	}
	data, err := codec.Reconstruct(shards)
	if err != nil {
		return nil, err
	}
	return codec.Join(data, int(m.Size))
}

// Delete removes an object's shards and metadata.
func (s *Store) Delete(name string) error {
	s.countOp()
	raw, err := s.meta.Lookup("istore:" + name)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			return ErrObjectNotFound
		}
		return err
	}
	m, err := decodeObjectMeta(raw)
	if err != nil {
		return err
	}
	for i := 0; i < int(m.N); i++ {
		s.caller.Call(m.Shards[i], &wire.Request{Op: wire.OpRemove, Key: shardKey(name, i)})
	}
	s.countOp()
	return s.meta.Remove("istore:" + name)
}

func shardKey(name string, i int) string { return fmt.Sprintf("%s#%04d", name, i) }
