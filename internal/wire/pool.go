// Message and buffer pools for the hot path.
//
// Every request that crosses the wire needs a Request struct, a
// Response struct, and a handful of byte buffers (encode scratch, the
// framed payload, value scratch). At millions of ops per second those
// allocations dominate the profile, so the hot path recycles all of
// them here. Ownership rules are documented in DESIGN.md §11; the
// short version:
//
//   - A decoded *Request and the frame it aliases belong to the
//     transport. Handlers may use them only until they return.
//   - A *Response produced by a handler is released by whoever
//     encodes it (the transport writer); marking it with
//     SetPooledValue also returns its Value scratch to the pool.
//   - Buffers from GetBuffer are single-owner: whoever holds one
//     either passes it on or returns it with PutBuffer, never both.
//
// Structs are pooled with sync.Pool. Byte buffers go through a
// FreeList: per-P like sync.Pool, so the request path shares no lock
// between cores, without boxing a slice header per Put. Buffers above
// maxPooledBuf are never retained, and whatever the list holds is
// released across two GC cycles, so a burst of large values cannot
// pin memory.
package wire

import (
	"sync"
	"sync/atomic"

	"zht/internal/metrics"
)

const (
	// pooledBufCap is the initial capacity of freshly allocated pool
	// buffers: big enough for a typical request frame (paper-scale
	// keys and values are tens of bytes) without being wasteful.
	pooledBufCap = 1 << 10
	// maxPooledBuf caps the capacity of buffers the pool retains.
	// Larger buffers (bulk migration images, batch envelopes) are
	// left to the GC so the free list stays small and hot.
	maxPooledBuf = 64 << 10
)

// poolMetrics holds the pool's instruments; all fields are nil-safe
// (see internal/metrics), so a nil *poolMetrics pointer means
// "metrics off" and costs one atomic pointer load.
type poolMetrics struct {
	gets   *metrics.Counter // zht.wire.pool.gets
	puts   *metrics.Counter // zht.wire.pool.puts
	misses *metrics.Counter // zht.wire.pool.misses
}

var poolMet atomic.Pointer[poolMetrics]

// EnablePoolMetrics points the package-level pools at reg. The pools
// are process-global, so the last registry wins; passing nil turns
// accounting off again. gets counts every pooled acquisition
// (structs and buffers), misses the subset that had to allocate, and
// puts every successful return — a healthy steady state shows
// gets ≈ puts, with misses stepping up after each GC (which empties
// the pools) and flat between collections.
func EnablePoolMetrics(reg *metrics.Registry) {
	if reg == nil {
		poolMet.Store(nil)
		return
	}
	poolMet.Store(&poolMetrics{
		gets:   reg.Counter("zht.wire.pool.gets"),
		puts:   reg.Counter("zht.wire.pool.puts"),
		misses: reg.Counter("zht.wire.pool.misses"),
	})
}

// poisonPool, when set, makes every FreeList overwrite returned
// buffers with PoisonByte before pooling them. Tests enable it to turn
// any use-after-release of a pooled buffer into a loud, deterministic
// corruption instead of a silent heisenbug.
var poisonPool atomic.Bool

// PoisonByte is the filler SetPoolPoison writes over released
// buffers; exported so regression tests can assert against it.
const PoisonByte = 0xDB

// SetPoolPoison toggles poisoning of released buffers in every
// FreeList. Test-only: it is global and costs a memset per Put.
func SetPoolPoison(on bool) { poisonPool.Store(on) }

// FreeList is a per-P free list of byte buffers, safe for concurrent
// use. It is two sync.Pools of *[]byte cells: full holds cells that
// carry a buffer, empty holds spent cells. Get moves a buffer out of
// its cell and parks the cell in empty; Put fills a cell from empty
// and parks it in full. A pointer boxes into an interface without
// allocating, so once both pools are warm neither call allocates —
// what a bare sync.Pool of []byte cannot do, since it boxes the slice
// header on every Put. Like any sync.Pool, both are emptied across
// two GC cycles, which is what bounds the memory the list retains.
// The zero value is not usable; call NewFreeList.
type FreeList struct {
	full, empty sync.Pool
	newCap      int // capacity of buffers Get allocates on a miss
	maxCap      int // buffers above this capacity are left to the GC
}

// NewFreeList returns a free list whose misses allocate newCap-byte
// buffers and which retains buffers of capacity at most maxCap.
func NewFreeList(newCap, maxCap int) *FreeList {
	return &FreeList{newCap: newCap, maxCap: maxCap}
}

// Get returns an empty (length-0) buffer and whether it came from the
// list rather than the allocator.
func (l *FreeList) Get() (b []byte, reused bool) {
	c, _ := l.full.Get().(*[]byte)
	if c == nil {
		return make([]byte, 0, l.newCap), false
	}
	b = *c
	*c = nil // the spent cell must not keep the buffer alive
	l.empty.Put(c)
	return b, true
}

// Put hands b's backing array to the list and reports whether it was
// kept; zero-capacity and oversized buffers are dropped for the GC.
// The caller must not retain any slice of b.
func (l *FreeList) Put(b []byte) bool {
	if cap(b) == 0 || cap(b) > l.maxCap {
		return false
	}
	if poisonPool.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
	c, _ := l.empty.Get().(*[]byte)
	if c == nil {
		c = new([]byte)
	}
	*c = b[:0]
	l.full.Put(c)
	return true
}

var requestPool = sync.Pool{New: func() any {
	if m := poolMet.Load(); m != nil {
		m.misses.Inc()
	}
	return new(Request)
}}

var responsePool = sync.Pool{New: func() any {
	if m := poolMet.Load(); m != nil {
		m.misses.Inc()
	}
	return new(Response)
}}

// GetRequest returns a zeroed Request from the pool.
func GetRequest() *Request {
	if m := poolMet.Load(); m != nil {
		m.gets.Inc()
	}
	return requestPool.Get().(*Request)
}

// PutRequest zeroes r and returns it to the pool. r's Key, Value,
// and Aux are merely dropped, never recycled — the pool does not own
// them. Callers must not touch r afterwards. A request living in a
// Slab is left alone: it is released with its slab.
func PutRequest(r *Request) {
	if r == nil || r.slab != nil {
		return
	}
	*r = Request{}
	requestPool.Put(r)
	if m := poolMet.Load(); m != nil {
		m.puts.Inc()
	}
}

// GetResponse returns a zeroed Response from the pool.
func GetResponse() *Response {
	if m := poolMet.Load(); m != nil {
		m.gets.Inc()
	}
	return responsePool.Get().(*Response)
}

// PutResponse zeroes r and returns it to the pool. If r's Value was
// attached with SetPooledValue, the scratch buffer goes back to the
// buffer pool too. Callers must not touch r (or a pooled Value)
// afterwards, and must not release a Response whose struct they
// copied — the copy would alias the recycled Value. A response living
// in a Slab is left alone: it is released with its slab.
func PutResponse(r *Response) {
	if r == nil || r.slab != nil {
		return
	}
	if r.pooledValue {
		PutBuffer(r.Value)
	}
	*r = Response{}
	responsePool.Put(r)
	if m := poolMet.Load(); m != nil {
		m.puts.Inc()
	}
}

// SetPooledValue sets r.Value to v and marks the backing array as
// pool-owned, so PutResponse recycles it. v must come from GetBuffer
// and ownership transfers to r — the caller must not use or PutBuffer
// it afterwards.
func (r *Response) SetPooledValue(v []byte) {
	r.Value = v
	r.pooledValue = true
}

// ShareFrom sets r's visible fields to v's. r shares v's Value/Table
// backing but never owns it, so fanning one verdict out to many slots
// stays single-owner per slot. r stays where it lives: a slab's
// response remains in its slab.
func (r *Response) ShareFrom(v *Response) {
	slab := r.slab
	*r = *v
	r.pooledValue, r.slab = false, slab
}

// Take moves v into r — every visible field, and the ownership of a
// pooled Value — and recycles v's struct. r stays where it lives: a
// slab's response remains in its slab.
func (r *Response) Take(v *Response) {
	slab := r.slab
	*r = *v
	r.slab = slab
	v.pooledValue = false
	PutResponse(v)
}

// bufFree holds message-scale scratch buffers.
var bufFree = NewFreeList(pooledBufCap, maxPooledBuf)

// GetBuffer returns an empty (length-0) scratch buffer from the
// pool. Append to it; hand it back with PutBuffer or transfer
// ownership exactly once.
func GetBuffer() []byte {
	b, reused := bufFree.Get()
	if m := poolMet.Load(); m != nil {
		m.gets.Inc()
		if !reused {
			m.misses.Inc()
		}
	}
	return b
}

// PutBuffer returns b's backing array to the pool. Zero-capacity and
// oversized buffers are dropped for the GC. The caller must not retain
// any slice of b.
func PutBuffer(b []byte) {
	if bufFree.Put(b) {
		if m := poolMet.Load(); m != nil {
			m.puts.Inc()
		}
	}
}

// DecodeRequestPooled is DecodeRequest into a pooled struct: release
// the result with PutRequest once the handler is done with it. The
// request aliases b exactly like DecodeRequest's does.
func DecodeRequestPooled(b []byte) (*Request, error) {
	r := GetRequest()
	if err := decodeRequestInto(r, b); err != nil {
		PutRequest(r)
		return nil, err
	}
	return r, nil
}

// DecodeResponsePooled is DecodeResponse into a pooled struct:
// release the result with PutResponse. Value/Table alias b.
func DecodeResponsePooled(b []byte) (*Response, error) {
	r := GetResponse()
	if err := decodeResponseInto(r, b); err != nil {
		PutResponse(r)
		return nil, err
	}
	return r, nil
}
