package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Batch envelope codec. A batch is an ordinary Request with Op ==
// OpBatch whose Aux carries N encoded sub-requests; its response is an
// ordinary Response whose Value carries the N sub-responses in the
// same order. Reusing the single-message framing means every
// transport, admission gate, and fault-injection layer handles batches
// with no special cases: a batch is one message on the wire, and the
// amortization of per-message overhead across its sub-operations is
// exactly the win the paper's connection-caching ablation (§III.F)
// chases at the connection level.
//
// The amortization reaches the memory too: an envelope's decoded
// sub-messages live by value in one pooled Slab, so an envelope costs
// one pool round trip however many sub-operations it carries.

// MaxBatchOps bounds the sub-operations one envelope may carry,
// guarding the decoder against corrupt counts allocating unbounded
// memory.
const MaxBatchOps = 1 << 16

// Every encoded sub-message takes at least this many bytes of an
// envelope, length prefix included, so a count claiming more
// sub-messages than the payload could hold is rejected before a slab
// is sized for it.
const (
	minItemRequest  = 1 + 13 // prefix + tag, op, flags and ten one-byte fields
	minItemResponse = 1 + 10 // prefix + tag, status and eight one-byte fields
)

// maxSlabRetained caps the sub-messages per half a pooled Slab keeps
// its arrays for; a larger envelope's arrays are left to the GC.
const maxSlabRetained = 1024

// Slab holds one envelope's sub-messages by value: Reqs[i] points at
// its i-th request and Resps[i] at its i-th response, all in two
// arrays that are drawn from the pool and released together, once.
//
// Ownership (DESIGN.md §11): a slab has one owner, who calls Release
// exactly once. Its requests alias the envelope payload they were
// decoded from, and its responses alias whatever their fields were set
// to, so neither may outlive that memory; a response's Value marked
// with SetPooledValue is recycled with the slab. A slab's messages are
// never released alone: PutRequest and PutResponse leave them be, and
// ReleaseOps and ReleaseResponses release the slab they live in.
type Slab struct {
	Reqs  []*Request
	Resps []*Response
	reqs  []Request
	resps []Response
}

var slabPool = sync.Pool{New: func() any {
	if m := poolMet.Load(); m != nil {
		m.misses.Inc()
	}
	return new(Slab)
}}

// getSlab returns an empty Slab from the pool.
func getSlab() *Slab {
	if m := poolMet.Load(); m != nil {
		m.gets.Inc()
	}
	return slabPool.Get().(*Slab)
}

// requests sizes s's request half to n zeroed requests and returns
// s.Reqs.
func (s *Slab) requests(n int) []*Request {
	if cap(s.reqs) < n {
		s.reqs, s.Reqs = make([]Request, n), make([]*Request, n)
		for i := range s.reqs {
			s.reqs[i].slab = s
			s.Reqs[i] = &s.reqs[i]
		}
	}
	s.reqs, s.Reqs = s.reqs[:n], s.Reqs[:n]
	return s.Reqs
}

// Responses sizes s's response half to n zeroed responses and returns
// s.Resps.
func (s *Slab) Responses(n int) []*Response {
	if cap(s.resps) < n {
		s.resps, s.Resps = make([]Response, n), make([]*Response, n)
		for i := range s.resps {
			s.resps[i].slab = s
			s.Resps[i] = &s.resps[i]
		}
	}
	s.resps, s.Resps = s.resps[:n], s.Resps[:n]
	return s.Resps
}

// Release zeroes every message in s — recycling pooled response
// values — and returns s to the pool. Neither s nor any of its
// messages may be touched afterwards.
func (s *Slab) Release() {
	for i := range s.reqs {
		s.reqs[i] = Request{slab: s}
	}
	for i := range s.resps {
		if r := &s.resps[i]; r.pooledValue {
			PutBuffer(r.Value)
		}
		s.resps[i] = Response{slab: s}
	}
	s.reqs, s.Reqs = s.reqs[:0], s.Reqs[:0]
	s.resps, s.Resps = s.resps[:0], s.Resps[:0]
	if cap(s.reqs) > maxSlabRetained {
		s.reqs, s.Reqs = nil, nil
	}
	if cap(s.resps) > maxSlabRetained {
		s.resps, s.Resps = nil, nil
	}
	slabPool.Put(s)
	if m := poolMet.Load(); m != nil {
		m.puts.Inc()
	}
}

// EncodeOps appends count + length-prefixed encoded sub-requests to
// dst and returns it. Each sub-request is encoded straight into dst.
func EncodeOps(dst []byte, reqs []*Request) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for _, r := range reqs {
		dst = binary.AppendUvarint(dst, uint64(requestLen(r)))
		dst = EncodeRequest(dst, r)
	}
	return dst
}

// DecodeOpsSlab parses the sub-requests of a batch envelope into a
// pooled Slab, whose Reqs holds them in order; the caller releases it.
// Nested batches are rejected: an envelope inside an envelope has no
// valid meaning and would let a hostile peer build decoding bombs. On
// error the slab has already been released. Decoded requests alias b
// (see DecodeRequest).
func DecodeOpsSlab(b []byte) (*Slab, error) {
	s := getSlab()
	if err := s.decodeOps(b); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

func (s *Slab) decodeOps(b []byte) error {
	n, b, err := uvar(b)
	if err != nil {
		return err
	}
	if n > MaxBatchOps || n > uint64(len(b)/minItemRequest) {
		return fmt.Errorf("%w: batch of %d ops in %d bytes", errMalformed, n, len(b))
	}
	for _, r := range s.requests(int(n)) {
		var item []byte
		if item, b, err = bytesField(b); err != nil {
			return err
		}
		if err := decodeRequestInto(r, item); err != nil {
			return err
		}
		if r.Op == OpBatch {
			return fmt.Errorf("%w: nested batch", errMalformed)
		}
	}
	if len(b) != 0 {
		return errMalformed
	}
	return nil
}

// DecodeOps is DecodeOpsSlab for callers that want only the requests:
// release them with ReleaseOps. An empty envelope yields no slab.
func DecodeOps(b []byte) ([]*Request, error) {
	s, err := DecodeOpsSlab(b)
	if err != nil {
		return nil, err
	}
	if len(s.Reqs) == 0 {
		s.Release()
		return nil, nil
	}
	return s.Reqs, nil
}

// ReleaseOps releases the slab that requests decoded by DecodeOps live
// in. Callers that let them go to the GC instead merely lose the
// reuse, never correctness.
func ReleaseOps(reqs []*Request) {
	if len(reqs) > 0 && reqs[0].slab != nil {
		reqs[0].slab.Release()
	}
}

// EncodeResponses appends count + length-prefixed encoded
// sub-responses to dst and returns it. Each sub-response is encoded
// straight into dst.
func EncodeResponses(dst []byte, rs []*Response) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for _, r := range rs {
		dst = binary.AppendUvarint(dst, uint64(responseLen(r)))
		dst = EncodeResponse(dst, r)
	}
	return dst
}

// decodeResponsesSlab parses the sub-responses of a batch envelope's
// response into a pooled Slab, whose Resps holds them in order; the
// caller releases it. On error the slab has already been released.
// Decoded responses alias b (see DecodeResponse).
func decodeResponsesSlab(b []byte) (*Slab, error) {
	s := getSlab()
	if err := s.decodeResponses(b); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

func (s *Slab) decodeResponses(b []byte) error {
	n, b, err := uvar(b)
	if err != nil {
		return err
	}
	if n > MaxBatchOps || n > uint64(len(b)/minItemResponse) {
		return fmt.Errorf("%w: batch of %d responses in %d bytes", errMalformed, n, len(b))
	}
	for _, r := range s.Responses(int(n)) {
		var item []byte
		if item, b, err = bytesField(b); err != nil {
			return err
		}
		if err := decodeResponseInto(r, item); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return errMalformed
	}
	return nil
}

// DecodeResponses is decodeResponsesSlab for callers that want only
// the responses: release them with ReleaseResponses. An empty envelope
// yields no slab.
func DecodeResponses(b []byte) ([]*Response, error) {
	s, err := decodeResponsesSlab(b)
	if err != nil {
		return nil, err
	}
	if len(s.Resps) == 0 {
		s.Release()
		return nil, nil
	}
	return s.Resps, nil
}

// ReleaseResponses releases every response in rs: a standalone one
// to the pool, and a slab's — which must sit contiguously in rs, as
// UnpackBatchResponses and DecodeResponses return them — with their
// slab, once.
func ReleaseResponses(rs []*Response) {
	var held *Slab
	for _, r := range rs {
		switch {
		case r == nil:
		case r.slab == nil:
			PutResponse(r)
		case r.slab != held:
			if held != nil {
				held.Release()
			}
			held = r.slab
		}
	}
	if held != nil {
		held.Release()
	}
}

// NewBatchRequest packs sub-requests into an OpBatch envelope. The
// envelope inherits the largest Epoch and Budget among its
// sub-requests so stale-table detection and deadline propagation keep
// working at the message level.
func NewBatchRequest(reqs []*Request) *Request {
	env := GetRequest()
	env.Op = OpBatch
	env.Aux = EncodeOps(GetBuffer(), reqs)
	for _, r := range reqs {
		if r.Epoch > env.Epoch {
			env.Epoch = r.Epoch
		}
		if r.Budget > env.Budget {
			env.Budget = r.Budget
		}
	}
	return env
}

// ReleaseBatchRequest returns an envelope built by NewBatchRequest —
// struct and encoded Aux payload — to the pools. Call it only after
// the transport call using the envelope has returned.
func ReleaseBatchRequest(env *Request) {
	if env == nil {
		return
	}
	PutBuffer(env.Aux)
	PutRequest(env)
}

// NewBatchResponse packs sub-responses into a batch envelope's
// response. The envelope is pooled and its Value payload is marked
// pool-owned, so the transport writer reclaims both after encoding.
func NewBatchResponse(rs []*Response) *Response {
	r := GetResponse()
	r.Status = StatusOK
	r.SetPooledValue(EncodeResponses(GetBuffer(), rs))
	return r
}

// UnpackBatchResponses extracts n sub-responses from an envelope's
// response into a pooled Slab; release them with ReleaseResponses.
// When the server answered with a message-level verdict instead of a
// batch payload — shed with StatusBusy, rejected by a batch-unaware
// handler, or any top-level error — that verdict is fanned out to
// every sub-slot so callers can treat each sub-response uniformly.
// The sub-responses alias resp's Value (or, fanned out, its fields),
// never owning them.
func UnpackBatchResponses(resp *Response, n int) ([]*Response, error) {
	if resp.Status != StatusOK {
		s := getSlab()
		for _, r := range s.Responses(n) {
			r.ShareFrom(resp)
		}
		return s.Resps, nil
	}
	s, err := decodeResponsesSlab(resp.Value)
	if err != nil {
		return nil, err
	}
	if got := len(s.Resps); got != n {
		s.Release()
		return nil, fmt.Errorf("%w: batch answered %d of %d sub-responses", errMalformed, got, n)
	}
	return s.Resps, nil
}
