package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"zht/internal/loadgen"
)

// Key and value shapes are the paper's micro-benchmark (§IV.A): 15-byte
// keys ("bench" + loadgen's "k%09d") and 132-byte values.
const (
	numKeys   = 200_000 // preloaded before every run
	keyPrefix = "bench"
	valueLen  = 132
	// streamLen is how many generated ops each worker cycles through. The
	// stream is generated before the clock starts so that loadgen's
	// per-op Sprintf and Zipf set-up are not billed to the system.
	streamLen = 1 << 18
)

// A stored value is a chain of records, each naming the key it belongs to,
// the worker that wrote it and that worker's write sequence number, so any
// reply can be checked without knowing which write produced it:
//
//	'Z' kind(1) writer(2) key(4) seq(8) [filler to valueLen for inserts]
//
// An insert writes one 132-byte 'I' record; an append adds a bare 16-byte
// 'A' record. 'Z' keeps a value from ever looking like a tenant envelope
// (which starts 0x1d 0x01).
const (
	recHdr    = 16
	recInsert = 'I'
	recAppend = 'A'
)

var filler = func() []byte {
	f := make([]byte, valueLen-recHdr)
	for i := range f {
		f[i] = byte('a' + i%26)
	}
	return f
}()

// insertRecord writes a full insert record into buf[:valueLen].
func insertRecord(buf []byte, writer, key int, seq uint64) []byte {
	putHeader(buf, recInsert, writer, key, seq)
	copy(buf[recHdr:valueLen], filler)
	return buf[:valueLen]
}

// appendRecord writes an append record into buf[:recHdr].
func appendRecord(buf []byte, writer, key int, seq uint64) []byte {
	putHeader(buf, recAppend, writer, key, seq)
	return buf[:recHdr]
}

func putHeader(buf []byte, kind byte, writer, key int, seq uint64) {
	buf[0], buf[1] = 'Z', kind
	binary.LittleEndian.PutUint16(buf[2:], uint16(writer))
	binary.LittleEndian.PutUint32(buf[4:], uint32(key))
	binary.LittleEndian.PutUint64(buf[8:], seq)
}

// keyState is a writer's model of one key it owns: the sequence number of
// its last acknowledged write and how many records the value holds
// (0 = absent).
type keyState struct {
	seq  uint64
	nrec uint32
}

// owner is the only worker that writes key, so its model of key is exact.
func owner(key, workers int) int { return key % workers }

// checkValue verifies a value read back for key. Every record must name
// key and its owner, with increasing sequence numbers and only the first
// record an insert. When want is non-nil (the reader owns the key and is
// not racing its own writes) the chain must also be exactly the modelled
// one.
func checkValue(val []byte, key, workers int, want *keyState) error {
	var n uint32
	var last uint64
	for off := 0; off < len(val); n++ {
		rest := val[off:]
		if len(rest) < recHdr || rest[0] != 'Z' {
			return fmt.Errorf("key %d: malformed record %d at byte %d of %d", key, n, off, len(val))
		}
		size := recHdr
		switch rest[1] {
		case recInsert:
			size = valueLen
			if n > 0 {
				return fmt.Errorf("key %d: insert record after %d records", key, n)
			}
			if len(rest) < size || !bytes.Equal(rest[recHdr:size], filler) {
				return fmt.Errorf("key %d: insert record body corrupt", key)
			}
		case recAppend:
		default:
			return fmt.Errorf("key %d: unknown record kind %q", key, rest[1])
		}
		w := int(binary.LittleEndian.Uint16(rest[2:]))
		k := int(binary.LittleEndian.Uint32(rest[4:]))
		seq := binary.LittleEndian.Uint64(rest[8:])
		if k != key || w != owner(key, workers) {
			return fmt.Errorf("key %d: record names key %d writer %d", key, k, w)
		}
		if seq <= last {
			return fmt.Errorf("key %d: sequence %d after %d", key, seq, last)
		}
		last = seq
		off += size
	}
	if n == 0 {
		return fmt.Errorf("key %d: empty value", key)
	}
	if want != nil && (n != want.nrec || last != want.seq) {
		return fmt.Errorf("key %d: read %d records ending at seq %d, last acknowledged write left %d ending at %d",
			key, n, last, want.nrec, want.seq)
	}
	return nil
}

// genOp is one pre-generated operation: what to do and to which key index.
type genOp struct {
	kind loadgen.OpKind
	key  int32
}

// keyNames returns n key strings, in loadgen's format.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%sk%09d", keyPrefix, i)
	}
	return names
}

// buildStream draws n ops from internal/loadgen. Writes are moved onto the
// nearest key the worker owns, so that a key has one writer and the
// writer's model of it is exact; reads go wherever the distribution says.
func buildStream(mix loadgen.Mix, dist loadgen.KeyDist, seed int64, worker, workers, n int) ([]genOp, error) {
	g, err := loadgen.New(loadgen.Options{Mix: mix, Dist: dist, Seed: seed, KeyPrefix: keyPrefix})
	if err != nil {
		return nil, err
	}
	ops := make([]genOp, n)
	for i := range ops {
		op := g.Next()
		k, err := strconv.Atoi(op.Key[len(keyPrefix)+1:])
		if err != nil {
			return nil, fmt.Errorf("loadgen key %q: %w", op.Key, err)
		}
		if op.Kind != loadgen.OpLookup {
			k = k - k%workers + worker
		}
		ops[i] = genOp{kind: op.Kind, key: int32(k)}
	}
	return ops, nil
}

// streamSeed derives the seed of one worker's stream from the run's seed.
func streamSeed(seed int64, worker, class int) int64 {
	return seed*1_000_003 + int64(worker)*7919 + int64(class)
}
