// Package wire defines ZHT's message schema and compact binary codec.
//
// The paper (§III.G) serializes requests with Google Protocol Buffers:
// an operation indicator plus the key/value pair, encapsulated into a
// plain string and sent over the network. This package plays that role
// with a hand-written varint codec (see DESIGN.md substitutions): the
// schema is the same — op indicator, key, value — extended with the
// fields the rest of the protocol needs (client membership epoch for
// lazy table refresh, sequence numbers for UDP matching, and
// server-to-server partition/replication payloads).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Op is the operation indicator carried by every request.
type Op uint8

// Client-facing and server-to-server operations.
const (
	OpNop Op = iota
	// The four basic ZHT operations (§III.A).
	OpInsert
	OpLookup
	OpRemove
	OpAppend
	// OpCas is a compare-and-swap extension used by MATRIX-style
	// clients that need atomic read-modify-write.
	OpCas
	// OpBroadcast delivers a key/value pair to every instance via a
	// spanning tree (future-work broadcast primitive, implemented).
	OpBroadcast
	// OpReplicate forwards a mutation from a primary to a replica.
	OpReplicate
	// OpMembership requests the server's current membership table.
	OpMembership
	// OpDelta carries an incremental membership update broadcast by a
	// manager.
	OpDelta
	// OpMigrate asks a partition's owner to lock it for a move to a
	// new owner (Aux "lock") or to roll that lock back (Aux "abort").
	// It carries no pairs: a migration streams the partition's leaves
	// through OpDigest and OpRepairPull (migration moves partitions,
	// never rehashes pairs).
	OpMigrate
	// OpPing is the failure detector's liveness probe.
	OpPing
	// OpReport informs a manager that the sender observed an
	// instance failing repeatedly (Key holds the instance ID); the
	// manager verifies, fails the node over, and broadcasts the
	// membership change (§III.C unplanned departures).
	OpReport
	// OpBatch is an envelope carrying N encoded sub-requests in Aux;
	// the response carries the N sub-responses in Value (see batch.go).
	// Batching amortizes per-message cost across operations the same
	// way connection caching (§III.F) amortizes per-connection cost.
	OpBatch
	// OpDigest asks a peer for its Merkle digest of one partition
	// (Partition names it); the response Value carries the encoded
	// leaf hashes (internal/repair). Replicas diff digests against
	// the partition's authority to find divergence cheaply.
	OpDigest
	// OpRepairPull moves divergent leaf contents between replicas.
	// Aux always carries the leaf set. With Value empty it is a pull:
	// the receiver answers with its pairs in those leaves. With Value
	// set (encoded pairs, never empty — the count prefix is always
	// present) it is a push: the receiver replaces its leaf contents
	// with the authoritative set.
	OpRepairPull
	// OpDeltaPull asks a peer for the membership deltas between the
	// requester's epoch (Request.Epoch) and the peer's current epoch.
	// The response Value carries an internal/gossip pull payload:
	// either the ordered delta frames to replay, or the peer's full
	// table when its delta log no longer covers the gap
	// (ring.ErrEpochMismatch territory). This is the anti-entropy
	// membership pull a stale instance issues after noticing a newer
	// epoch piggybacked on normal traffic.
	OpDeltaPull
	opMax
)

func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpInsert:
		return "insert"
	case OpLookup:
		return "lookup"
	case OpRemove:
		return "remove"
	case OpAppend:
		return "append"
	case OpCas:
		return "cas"
	case OpBroadcast:
		return "broadcast"
	case OpReplicate:
		return "replicate"
	case OpMembership:
		return "membership"
	case OpDelta:
		return "delta"
	case OpMigrate:
		return "migrate"
	case OpPing:
		return "ping"
	case OpReport:
		return "report"
	case OpBatch:
		return "batch"
	case OpDigest:
		return "digest"
	case OpRepairPull:
		return "repair-pull"
	case OpDeltaPull:
		return "delta-pull"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the result code of a response. The paper's API returns 0
// for success and non-zero codes describing the error.
type Status uint8

const (
	// StatusOK — operation applied (return code 0 in the paper).
	StatusOK Status = iota
	// StatusNotFound — lookup/remove/append on an absent key.
	StatusNotFound
	// StatusWrongOwner — the receiving instance does not own the
	// key's partition; the response carries the server's current
	// membership table so the client can lazily refresh (§III.C).
	StatusWrongOwner
	// StatusMigrating — the partition is locked for migration; the
	// request was queued and answered with a redirect to the new
	// location once the move completed, or the client should retry
	// at the address in Redirect.
	StatusMigrating
	// StatusCasMismatch — compare-and-swap expectation failed; the
	// current value is returned.
	StatusCasMismatch
	// StatusExists — insert with IfAbsent flag on a present key.
	StatusExists
	// StatusError — server-side failure; Err holds detail.
	StatusError
	// StatusBusy — the instance's admission hook (core.AdmissionHook)
	// shed the request, or the address is bound but its instance is
	// not installed yet (core.HandlerSwitch). The response's
	// RetryAfter carries a backoff hint; clients retry with full
	// jitter. Busy is an overload signal, not a failure: it must not
	// count toward failure detection.
	StatusBusy
	// Status 8 is retired (a size-limit refusal): no server sends it,
	// and it stays unassigned so the statuses after it keep their
	// values on the wire.
	_
	// StatusQuorumNotMet — the owner applied the mutation but collected
	// fewer replica acks than the request's write level demands; Err
	// holds the ack count. Not a rollback: handoff and anti-entropy
	// finish spreading the write. Clients surface it as unavailability
	// of the partition at that level, as they do a read quorum refusal.
	StatusQuorumNotMet
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusWrongOwner:
		return "wrong-owner"
	case StatusMigrating:
		return "migrating"
	case StatusCasMismatch:
		return "cas-mismatch"
	case StatusExists:
		return "exists"
	case StatusError:
		return "error"
	case StatusBusy:
		return "busy"
	case StatusQuorumNotMet:
		return "quorum-not-met"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Request flag bits. Bits 0 and 2 are retired: no sender sets them
// and no receiver reads them, and they stay unassigned so the other
// flags keep their values on the wire.
const (
	_ uint8 = 1 << iota // retired (marked replica-chain traffic)
	// FlagIfAbsent makes insert fail with StatusExists when the key
	// is already present.
	FlagIfAbsent
	_ // retired (marked the synchronous replica leg)
	// FlagReplicaRead marks a lookup addressed to a replica rather
	// than the partition's owner: the receiver serves it from its
	// local copy (with its stored version) instead of answering
	// WrongOwner. Quorum reads fan these out alongside the owner read.
	FlagReplicaRead
	// FlagWholesale marks a repair-pull push whose pair set is the
	// partition owner's complete image for the pushed leaves: the
	// receiver may delete local keys absent from it. Pushes without
	// the flag (an acting authority that is itself a replica) only
	// upsert — the pusher's image may be missing acked writes, so
	// deleting against it could lose them.
	FlagWholesale
)

// Request is a ZHT protocol request.
type Request struct {
	Op    Op
	Flags uint8
	// Seq matches responses to requests on connectionless
	// transports.
	Seq uint64
	// Epoch is the sender's membership epoch; servers use it to
	// detect stale clients.
	Epoch uint64
	// Partition addresses server-to-server partition operations
	// (replication, migration); -1 when unused.
	Partition int64
	Key       string
	Value     []byte
	// Aux carries secondary payloads: expected value for CAS,
	// encoded deltas/tables, a repair leaf set, or a migration marker.
	Aux []byte
	// Hop counts spanning-tree depth for OpBroadcast.
	Hop uint32
	// Budget is the operation's remaining time budget in nanoseconds
	// at send time; 0 means no deadline. It is a relative duration —
	// not an absolute timestamp — so it survives clock skew between
	// machines. Transports bound their blocking (dial, round trip,
	// retransmission) by it, and servers may propagate it into nested
	// server-to-server calls so one client operation's retries,
	// redirects, and failovers share a single end-to-end deadline.
	Budget uint64
	// Consistency selects the per-request consistency level for KV
	// reads and writes. ConsistencyDefault (zero) defers to the
	// receiving node's configured default, which keeps the field free
	// on the wire for senders that never set it.
	Consistency Consistency
	// Version is the HLC version stamp a mutation carries along the
	// replica chain and through repair pushes, so every copy applies
	// it last-writer-wins. A client request leaves it zero (the owner
	// stamps the write); a replica leg without one is refused.
	Version uint64
	// detach is never encoded: a server that runs handlers on the
	// goroutine that read the request (TCP) installs it so a handler
	// about to block can give the connection's read loop away first.
	// Nil on every other transport; PutRequest clears it.
	detach func()
	// slab is the Slab this request lives in, nil for a standalone
	// request; a slab's requests are released with it (see batch.go).
	slab *Slab
}

// SetDetach installs the hook Detach calls; transports set it on the
// requests they decode.
func (r *Request) SetDetach(f func()) { r.detach = f }

// Detach tells the serving transport that the handler is about to
// block — wait on a lock another request releases, sleep, or call
// another server — so whatever the transport would otherwise do on
// this goroutine after the handler returns (read the connection's next
// request) must move elsewhere now. A no-op when the transport has
// nothing to move (or r is nil) and on every call after the first.
func (r *Request) Detach() {
	if r != nil && r.detach != nil {
		r.detach()
	}
}

// Response is a ZHT protocol response.
type Response struct {
	Status Status
	Seq    uint64
	Value  []byte
	// Table, when present, is an encoded up-to-date membership table
	// (sent with StatusWrongOwner and membership fetches).
	Table []byte
	// Redirect is the address now serving the request's partition
	// (sent after a migration completes).
	Redirect string
	// Err carries human-readable detail for StatusError.
	Err string
	// RetryAfter is a backoff hint in nanoseconds sent with
	// StatusBusy: the shed client should wait at least this long
	// (with jitter) before retrying. 0 means no hint.
	RetryAfter uint64
	// Epoch is the responder's membership epoch, piggybacked on every
	// instance response so peers and clients detect staleness from
	// normal traffic instead of waiting for a manager broadcast
	// (gossip-driven membership; see internal/gossip). 0 means the
	// responder does not participate (non-instance handlers).
	Epoch uint64
	// Version is the stored HLC version of the value a lookup
	// returned; quorum reads compare versions across copies and the
	// newest wins. Zero means the serving copy predates versioning or
	// the op does not carry one.
	Version uint64
	// pooledValue marks Value's backing array as owned by this
	// package's buffer pool (set via SetPooledValue); PutResponse
	// recycles it. See pool.go.
	pooledValue bool
	// slab is the Slab this response lives in, nil for a standalone
	// response; a slab's responses are released with it (see batch.go).
	slab *Slab
}

// maxString caps any single field to guard against corrupt length
// prefixes allocating unbounded memory.
const maxString = 64 << 20

var errMalformed = errors.New("wire: malformed message")

// EncodeRequest appends the encoded request to dst and returns it.
func EncodeRequest(dst []byte, r *Request) []byte {
	dst = append(dst, 'Q', byte(r.Op), r.Flags)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.AppendVarint(dst, r.Partition)
	dst = binary.AppendUvarint(dst, uint64(r.Hop))
	dst = binary.AppendUvarint(dst, r.Budget)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Aux)))
	dst = append(dst, r.Aux...)
	dst = append(dst, byte(r.Consistency))
	dst = binary.AppendUvarint(dst, r.Version)
	return dst
}

// requestLen is len(EncodeRequest(nil, r)), computed without encoding.
func requestLen(r *Request) int {
	return 3 + uvarintLen(r.Seq) + uvarintLen(r.Epoch) + varintLen(r.Partition) +
		uvarintLen(uint64(r.Hop)) + uvarintLen(r.Budget) +
		bytesLen(len(r.Key)) + bytesLen(len(r.Value)) + bytesLen(len(r.Aux)) +
		1 + uvarintLen(r.Version)
}

// DecodeRequest parses a request. The returned request aliases b's
// backing array for Value/Aux; callers that retain those must copy.
func DecodeRequest(b []byte) (*Request, error) {
	r := &Request{}
	if err := decodeRequestInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeRequestInto(r *Request, b []byte) error {
	if len(b) < 3 || b[0] != 'Q' {
		return errMalformed
	}
	r.Op, r.Flags = Op(b[1]), b[2]
	if r.Op == OpNop || r.Op >= opMax {
		return fmt.Errorf("%w: bad op %d", errMalformed, b[1])
	}
	b = b[3:]
	var err error
	if r.Seq, b, err = uvar(b); err != nil {
		return err
	}
	if r.Epoch, b, err = uvar(b); err != nil {
		return err
	}
	if r.Partition, b, err = svar(b); err != nil {
		return err
	}
	var hop uint64
	if hop, b, err = uvar(b); err != nil {
		return err
	}
	r.Hop = uint32(hop)
	if r.Budget, b, err = uvar(b); err != nil {
		return err
	}
	var key []byte
	if key, b, err = bytesField(b); err != nil {
		return err
	}
	r.Key = string(key)
	if r.Value, b, err = bytesField(b); err != nil {
		return err
	}
	if r.Aux, b, err = bytesField(b); err != nil {
		return err
	}
	if len(b) < 1 {
		return errMalformed
	}
	r.Consistency = Consistency(b[0])
	if r.Consistency >= consistencyMax {
		return fmt.Errorf("%w: bad consistency %d", errMalformed, b[0])
	}
	b = b[1:]
	if r.Version, b, err = uvar(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return errMalformed
	}
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Aux) == 0 {
		r.Aux = nil
	}
	return nil
}

// EncodeResponse appends the encoded response to dst and returns it.
// A nil dst is allocated at the encoded size, so the encoding costs
// one allocation however many fields it carries.
func EncodeResponse(dst []byte, r *Response) []byte {
	if dst == nil {
		dst = make([]byte, 0, responseLen(r))
	}
	dst = append(dst, 'S', byte(r.Status))
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Table)))
	dst = append(dst, r.Table...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Redirect)))
	dst = append(dst, r.Redirect...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Err)))
	dst = append(dst, r.Err...)
	dst = binary.AppendUvarint(dst, r.RetryAfter)
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.AppendUvarint(dst, r.Version)
	return dst
}

// responseLen is len(EncodeResponse(nil, r)), computed without
// encoding.
func responseLen(r *Response) int {
	return 2 + uvarintLen(r.Seq) + bytesLen(len(r.Value)) + bytesLen(len(r.Table)) +
		bytesLen(len(r.Redirect)) + bytesLen(len(r.Err)) +
		uvarintLen(r.RetryAfter) + uvarintLen(r.Epoch) + uvarintLen(r.Version)
}

// DecodeResponse parses a response. Value/Table alias b.
func DecodeResponse(b []byte) (*Response, error) {
	r := &Response{}
	if err := decodeResponseInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeResponseInto(r *Response, b []byte) error {
	if len(b) < 2 || b[0] != 'S' {
		return errMalformed
	}
	r.Status = Status(b[1])
	b = b[2:]
	var err error
	if r.Seq, b, err = uvar(b); err != nil {
		return err
	}
	if r.Value, b, err = bytesField(b); err != nil {
		return err
	}
	if r.Table, b, err = bytesField(b); err != nil {
		return err
	}
	var s []byte
	if s, b, err = bytesField(b); err != nil {
		return err
	}
	r.Redirect = string(s)
	if s, b, err = bytesField(b); err != nil {
		return err
	}
	r.Err = string(s)
	if r.RetryAfter, b, err = uvar(b); err != nil {
		return err
	}
	if r.Epoch, b, err = uvar(b); err != nil {
		return err
	}
	if r.Version, b, err = uvar(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return errMalformed
	}
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Table) == 0 {
		r.Table = nil
	}
	return nil
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded size of x as a zig-zag varint.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// bytesLen is the encoded size of an n-byte length-prefixed field.
func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }

func uvar(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errMalformed
	}
	return v, b[n:], nil
}

func svar(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errMalformed
	}
	return v, b[n:], nil
}

func bytesField(b []byte) ([]byte, []byte, error) {
	n, rest, err := uvar(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxString || uint64(len(rest)) < n {
		return nil, nil, errMalformed
	}
	return rest[:n], rest[n:], nil
}
