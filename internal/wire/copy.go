package wire

import "fmt"

// In-process copies. A transport that hands messages across a call
// inside one process (transport.Registry) needs what a socket gives
// for free: the receiver must not alias the sender's memory, and it
// must see exactly the message a real transport would deliver. The
// copy functions give that without an encode and a decode: each
// returns what decoding the message's encoding returns — the same
// fields, the same normalisation (an empty Value, Aux or Table becomes
// nil), the same refusals — plus the encoded size, so byte accounting
// still counts the bytes a socket would carry. Go strings are
// immutable, so Key, Redirect and Err are shared; byte fields are
// copied. FuzzCopyMatchesCodec pins the equivalence.

// CopyRequest returns what DecodeRequestPooled(EncodeRequest(buf, r))
// returns, and len(EncodeRequest(nil, r)), which it reports on a
// refusal too. The copy's Value and Aux live in buf, one pooled buffer
// (nil when both are empty): release the copy with PutRequest and then
// buf with PutBuffer, as a transport releases a decoded request and
// its frame.
func CopyRequest(r *Request) (c *Request, buf []byte, size int, err error) {
	size = requestLen(r)
	// Refuse in the decoder's order, with its errors.
	if r.Op == OpNop || r.Op >= opMax {
		return nil, nil, size, fmt.Errorf("%w: bad op %d", errMalformed, uint8(r.Op))
	}
	if len(r.Key) > maxString || len(r.Value) > maxString || len(r.Aux) > maxString {
		return nil, nil, size, errMalformed
	}
	if r.Consistency >= consistencyMax {
		return nil, nil, size, fmt.Errorf("%w: bad consistency %d", errMalformed, uint8(r.Consistency))
	}
	c = GetRequest()
	*c = Request{Op: r.Op, Flags: r.Flags, Seq: r.Seq, Epoch: r.Epoch, Partition: r.Partition,
		Key: r.Key, Hop: r.Hop, Budget: r.Budget, Consistency: r.Consistency, Version: r.Version}
	if len(r.Value)+len(r.Aux) > 0 {
		buf = append(append(GetBuffer(), r.Value...), r.Aux...)
		c.Value, c.Aux = split(buf, len(r.Value))
	}
	return c, buf, size, nil
}

// CopyResponse returns what DecodeResponsePooled(EncodeResponse(nil,
// r)) returns, and len(EncodeResponse(nil, r)), which it reports on a
// refusal too. The copy's Value and Table share one allocation of
// exactly their size, made only when they are not both empty; it is
// the caller's, like a decoded response's encoding.
func CopyResponse(r *Response) (c *Response, size int, err error) {
	size = responseLen(r)
	if len(r.Value) > maxString || len(r.Table) > maxString ||
		len(r.Redirect) > maxString || len(r.Err) > maxString {
		return nil, size, errMalformed
	}
	c = GetResponse()
	*c = Response{Status: r.Status, Seq: r.Seq, Redirect: r.Redirect, Err: r.Err,
		RetryAfter: r.RetryAfter, Epoch: r.Epoch, Version: r.Version}
	if n := len(r.Value) + len(r.Table); n > 0 {
		b := make([]byte, n)
		copy(b[copy(b, r.Value):], r.Table)
		c.Value, c.Table = split(b, len(r.Value))
	}
	return c, size, nil
}

// split cuts b at n into two fields, each nil when empty, the first
// capped so that appending to it cannot overwrite the second.
func split(b []byte, n int) (head, tail []byte) {
	if n > 0 {
		head = b[:n:n]
	}
	if n < len(b) {
		tail = b[n:]
	}
	return head, tail
}
