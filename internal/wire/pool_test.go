package wire

import (
	"bytes"
	"sync"
	"testing"

	"zht/internal/metrics"
)

// The pool tests run with poisoning on: every buffer released to the
// pool is overwritten with PoisonByte, so any path that reads pooled
// memory after releasing it sees deterministic corruption instead of
// a heisenbug. SetPoolPoison is global — always restore it.

func TestPutBufferPoisonsBacking(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	b := GetBuffer()
	b = append(b, []byte("live payload")...)
	alias := b
	PutBuffer(b)
	for i, c := range alias {
		if c != PoisonByte {
			t.Fatalf("byte %d survived release: %#x (want poison %#x)", i, c, PoisonByte)
		}
	}
}

func TestPutResponseRecyclesPooledValue(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	v := GetBuffer()
	v = append(v, []byte("pooled value")...)
	alias := v
	r := GetResponse()
	r.Status = StatusOK
	r.SetPooledValue(v)
	PutResponse(r)
	for i, c := range alias {
		if c != PoisonByte {
			t.Fatalf("pooled value byte %d survived PutResponse: %#x", i, c)
		}
	}
}

// TestShallowCopyNeverOwnsValue pins the fan-out contract: a slot set
// with ShareFrom never owns the value it shares, so releasing N copies
// of one verdict — standalone or in a slab — cannot double-free it.
func TestShallowCopyNeverOwnsValue(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	v := GetBuffer()
	v = append(v, []byte("shared verdict")...)
	r := GetResponse()
	r.Status = StatusOK
	r.SetPooledValue(v)

	want := append([]byte(nil), r.Value...)
	for i := 0; i < 4; i++ {
		cp := GetResponse()
		cp.ShareFrom(r)
		PutResponse(cp)
		if !bytes.Equal(r.Value, want) {
			t.Fatalf("releasing shallow copy %d corrupted the original's value: %q", i, r.Value)
		}
	}
	slab := getSlab()
	for _, cp := range slab.Responses(4) {
		cp.ShareFrom(r)
	}
	slab.Release()
	if !bytes.Equal(r.Value, want) {
		t.Fatalf("releasing a slab of shallow copies corrupted the original's value: %q", r.Value)
	}
	alias := r.Value
	PutResponse(r) // the original owns the value; now it gets recycled
	for i, c := range alias {
		if c != PoisonByte {
			t.Fatalf("owned value byte %d survived final release: %#x", i, c)
		}
	}
}

// TestDecodePooledReleaseDoesNotReachCopies walks the ownership chain
// a client follows: decode a response from a frame, copy the value
// out for the application, release struct and frame. The application
// copy must be untouched while the frame itself is poisoned.
func TestDecodePooledReleaseDoesNotReachCopies(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	src := &Response{Status: StatusOK, Value: []byte("frame-backed value")}
	frame := EncodeResponse(GetBuffer(), src)

	dec, err := DecodeResponsePooled(frame)
	if err != nil {
		t.Fatal(err)
	}
	appCopy := append([]byte(nil), dec.Value...)
	frameAlias := dec.Value // aliases frame's backing array

	PutResponse(dec) // not a pooled value: struct only
	PutBuffer(frame)

	if !bytes.Equal(appCopy, src.Value) {
		t.Fatalf("application copy corrupted by release: %q", appCopy)
	}
	for i, c := range frameAlias {
		if c != PoisonByte {
			t.Fatalf("frame byte %d survived PutBuffer: %#x", i, c)
		}
	}
}

// TestBufferGetPutAllocFree pins the point of the two-pool cell trick:
// once warm, a Get/Put pair allocates neither a buffer nor a cell.
func TestBufferGetPutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	PutBuffer(GetBuffer()) // the first Put allocates the cell
	if n := testing.AllocsPerRun(1000, func() { PutBuffer(GetBuffer()) }); n != 0 {
		t.Fatalf("GetBuffer+PutBuffer allocates %.0f per pair after warm-up", n)
	}
}

// TestFreeListDropsUnpoolable checks that zero-capacity buffers and
// buffers above the retention cap go to the GC, not into the list, and
// that PutBuffer counts only what it kept.
func TestFreeListDropsUnpoolable(t *testing.T) {
	l := NewFreeList(16, maxPooledBuf)
	if l.Put(nil) || l.Put(make([]byte, 0)) {
		t.Error("zero-capacity buffer retained")
	}
	if l.Put(make([]byte, 0, maxPooledBuf+1)) {
		t.Error("buffer above the retention cap retained")
	}
	if b, reused := l.Get(); reused {
		t.Errorf("Get served a dropped buffer (cap %d)", cap(b))
	}
	if !l.Put(make([]byte, 10, maxPooledBuf)) {
		t.Error("buffer at the retention cap dropped")
	}

	reg := metrics.NewRegistry()
	EnablePoolMetrics(reg)
	defer EnablePoolMetrics(nil)
	PutBuffer(nil)
	PutBuffer(make([]byte, 0, maxPooledBuf+1))
	if n := reg.Counter("zht.wire.pool.puts").Value(); n != 0 {
		t.Errorf("puts = %d after two dropped buffers, want 0", n)
	}
	PutBuffer(make([]byte, 0, pooledBufCap))
	if n := reg.Counter("zht.wire.pool.puts").Value(); n != 1 {
		t.Errorf("puts = %d after one kept buffer, want 1", n)
	}
}

// TestFreeListSingleOwnerAcrossGoroutines hands every buffer from the
// goroutine that got it to another that returns it — the shape of a
// request frame released by a different goroutine than read it — on
// eight pairs at once. A buffer given to two owners shows up three
// ways: a second claim on a backing array still held, a payload
// overwritten before its consumer read it, or a race report.
func TestFreeListSingleOwnerAcrossGoroutines(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	const pairs, rounds = 8, 2000
	var (
		mu    sync.Mutex
		owner = map[*byte]int{} // first byte of a held backing array → holder
	)
	first := func(b []byte) *byte { return &b[:cap(b)][0] }
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		ch := make(chan []byte, 16) // a few in flight, so Gets overlap Puts
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			defer close(ch)
			for i := 0; i < rounds; i++ {
				b := GetBuffer()
				mu.Lock()
				if prev, held := owner[first(b)]; held {
					t.Errorf("pair %d got a buffer pair %d still holds", p, prev)
				}
				owner[first(b)] = p
				mu.Unlock()
				ch <- append(b, bytes.Repeat([]byte{byte(i)}, 64)...)
			}
		}(p)
		go func() {
			defer wg.Done()
			i := 0
			for b := range ch {
				if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, 64)) {
					t.Errorf("payload %d overwritten while owned: % x", i, b[:8])
				}
				mu.Lock()
				delete(owner, first(b))
				mu.Unlock()
				PutBuffer(b)
				i++
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBufferParallel is the free list alone: every goroutine takes
// a buffer, writes a request-sized payload and returns it.
func BenchmarkBufferParallel(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			PutBuffer(append(GetBuffer(), payload...))
		}
	})
}

// TestBatchReleaseRoundTrip poisons through the batch envelope path:
// encode ops, decode them pooled, release, and check that nothing the
// caller kept is reachable from the recycled frames.
func TestBatchReleaseRoundTrip(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	ops := []*Request{
		{Op: OpInsert, Key: "k1", Value: []byte("v1")},
		{Op: OpLookup, Key: "k2"},
	}
	env := EncodeOps(GetBuffer(), ops)

	dec, err := DecodeOps(env)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]byte(nil), dec[0].Value...)
	ReleaseOps(dec)
	PutBuffer(env)

	if !bytes.Equal(kept, []byte("v1")) {
		t.Fatalf("copied sub-op value corrupted by release: %q", kept)
	}
}
