package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Export and Import move a whole partition image between nodes. ZHT's
// partition migration (paper §III.C "Data Migration") moves entire
// partitions — "as easy as moving a file" — instead of rehashing
// key/value pairs. The stream format is engine-agnostic: any KV can
// produce or consume it, so a migration can even move a partition
// between different storage engines.

// ExportMagic precedes every export stream.
var ExportMagic = []byte("NOVOEXP1")

// Stream record framing: a pair record is tag 1 followed by uvarint
// key and value lengths, the key, the value, and a CRC32 of all of
// the preceding bytes; tag 0 marks a clean end of stream. Tag 2 is a
// versioned pair: identical, plus a version-stamp uvarint between the
// value length and the key. Sources emit tag 2 only for pairs with a
// non-zero stamp, so a version-0 pair keeps the pre-versioning format.
const (
	expPair  = 1
	expEnd   = 0
	expPairV = 2
)

var errBadExportRecord = errors.New("storage: bad export record checksum")

// Export writes a self-contained snapshot of kv to w; version stamps
// travel with the pairs so an import applies last-writer-wins.
func Export(w io.Writer, kv KV) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(ExportMagic); err != nil {
		return err
	}
	err := kv.ForEachV(func(key string, val []byte, ver uint64) error {
		return writeExportRecord(bw, key, val, ver)
	})
	if err != nil {
		return err
	}
	if err := bw.WriteByte(expEnd); err != nil {
		return err
	}
	return bw.Flush()
}

// Import loads pairs from an Export stream into kv, each through
// PutLWW: an image is a snapshot, and a copy that has since applied a
// newer write of a key (a replica-rebuild image arriving after the
// key's next replica leg) must keep it. A version-0 pair lands only
// where the key is absent. It returns the number of pairs read.
func Import(r io.Reader, kv KV) (int, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(ExportMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("storage: import: %w", err)
	}
	if string(magic) != string(ExportMagic) {
		return 0, errors.New("storage: import: bad magic")
	}
	count := 0
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return count, fmt.Errorf("storage: import: missing terminator: %w", err)
		}
		if tag == expEnd {
			return count, nil
		}
		if tag != expPair && tag != expPairV {
			return count, errors.New("storage: import: unexpected record type")
		}
		key, val, ver, err := readExportRecord(br, tag)
		if err != nil {
			return count, fmt.Errorf("storage: import: %w", err)
		}
		if _, err := kv.PutLWW(key, val, ver); err != nil {
			return count, err
		}
		count++
	}
}

// writeExportRecord appends one pair record to w, as a versioned
// record when ver is non-zero.
func writeExportRecord(w *bufio.Writer, key string, val []byte, ver uint64) error {
	var hdr [1 + 3*binary.MaxVarintLen64]byte
	hdr[0] = expPair
	if ver > 0 {
		hdr[0] = expPairV
	}
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(val)))
	if ver > 0 {
		n += binary.PutUvarint(hdr[n:], ver)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:n])
	crc.Write([]byte(key))
	crc.Write(val)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	for _, chunk := range [][]byte{hdr[:n], []byte(key), val, sum[:]} {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// readExportRecord reads the body of one pair record whose tag byte
// has already been consumed; versioned records yield their stamp,
// plain pairs ver 0.
func readExportRecord(r *bufio.Reader, tag byte) (string, []byte, uint64, error) {
	crc := crc32.NewIEEE()
	crc.Write([]byte{tag})
	klen, err := readUvarint(r, crc)
	if err != nil {
		return "", nil, 0, err
	}
	vlen, err := readUvarint(r, crc)
	if err != nil {
		return "", nil, 0, err
	}
	var ver uint64
	if tag == expPairV {
		if ver, err = readUvarint(r, crc); err != nil {
			return "", nil, 0, err
		}
	}
	if klen > 1<<20 || vlen > 1<<30 {
		return "", nil, 0, errBadExportRecord
	}
	kb := make([]byte, klen)
	if _, err := io.ReadFull(r, kb); err != nil {
		return "", nil, 0, err
	}
	crc.Write(kb)
	val := make([]byte, vlen)
	if _, err := io.ReadFull(r, val); err != nil {
		return "", nil, 0, err
	}
	crc.Write(val)
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return "", nil, 0, err
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc.Sum32() {
		return "", nil, 0, errBadExportRecord
	}
	return string(kb), val, ver, nil
}

func readUvarint(r *bufio.Reader, crc io.Writer) (uint64, error) {
	var v uint64
	var shift int
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		crc.Write([]byte{b})
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, errBadExportRecord
		}
	}
}
