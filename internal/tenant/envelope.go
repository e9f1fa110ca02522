package tenant

import (
	"encoding/binary"
	"time"
)

// Value envelope: cache-shaped tenants need an expiry stamp (and the
// memcached gateway needs client flags) carried WITH the value, so
// that replication, handoff, and anti-entropy move policy and payload
// as one unit. The envelope is two magic bytes followed by two
// uvarints and the raw value:
//
//	0x1d 0x01 | uvarint expiryUnixMilli (0 = never) | uvarint flags | value
//
// The magic leads with the same reserved separator byte as the
// namespace codec, so plain (pre-tenancy) values — which may not
// start with 0x1d — are distinguished by a one-byte comparison and
// pay near-zero cost on the read path. Values that DO start with
// 0x1d 0x01 must be written through Wrap; the prefix is reserved.
const (
	envMagic0 = 0x1d
	envMagic1 = 0x01
)

// Wrap encodes value with an expiry stamp (absolute wall-clock time;
// zero time = never expires) and opaque client flags. The result is a
// fresh slice; value is not retained.
func Wrap(value []byte, flags uint32, expiry time.Time) []byte {
	var ms uint64
	if !expiry.IsZero() {
		ms = uint64(expiry.UnixMilli())
	}
	buf := make([]byte, 2, 2+2*binary.MaxVarintLen64+len(value))
	buf[0], buf[1] = envMagic0, envMagic1
	buf = binary.AppendUvarint(buf, ms)
	buf = binary.AppendUvarint(buf, uint64(flags))
	return append(buf, value...)
}

// Unwrap decodes an envelope. For plain values (no envelope magic) it
// returns the input unchanged with wrapped=false. The returned value
// aliases b.
func Unwrap(b []byte) (value []byte, flags uint32, expiry time.Time, wrapped bool) {
	if len(b) < 2 || b[0] != envMagic0 || b[1] != envMagic1 {
		return b, 0, time.Time{}, false
	}
	rest := b[2:]
	ms, n := binary.Uvarint(rest)
	if n <= 0 {
		return b, 0, time.Time{}, false // corrupt; surface raw bytes
	}
	rest = rest[n:]
	fl, n := binary.Uvarint(rest)
	if n <= 0 {
		return b, 0, time.Time{}, false
	}
	if ms != 0 {
		expiry = time.UnixMilli(int64(ms))
	}
	return rest[n:], uint32(fl), expiry, true
}

// Expired reports whether b is an envelope whose expiry stamp has
// passed. Plain values and envelopes without an expiry never expire.
// The check is designed for the storage read path: one two-byte
// comparison for plain values, one uvarint decode for envelopes. The
// clock is read only for an envelope with an expiry.
func Expired(b []byte) bool {
	ms, ok := expiryOf(b)
	return ok && ms <= time.Now().UnixMilli()
}

// ExpiredAt is Expired against an explicit clock (Unix milliseconds),
// for the reaper and for deterministic tests.
func ExpiredAt(b []byte, nowMilli int64) bool {
	ms, ok := expiryOf(b)
	return ok && ms <= nowMilli
}

// expiryOf returns the expiry stamp (Unix milliseconds) of an envelope
// that carries one.
func expiryOf(b []byte) (int64, bool) {
	if len(b) < 3 || b[0] != envMagic0 || b[1] != envMagic1 {
		return 0, false
	}
	ms, n := binary.Uvarint(b[2:])
	if n <= 0 || ms == 0 {
		return 0, false
	}
	return int64(ms), true
}
