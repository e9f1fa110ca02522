package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"zht/internal/metrics"
)

func sampleOps() []*Request {
	return []*Request{
		{Op: OpInsert, Key: "alpha", Value: []byte("v1"), Epoch: 3, Budget: 1000},
		{Op: OpLookup, Key: "beta", Epoch: 3},
		{Op: OpRemove, Key: "gamma", Epoch: 7},
		{Op: OpAppend, Key: "alpha", Value: []byte("+more"), Aux: []byte("aux")},
		{Op: OpReplicate, Partition: 42, Key: "delta", Value: []byte("rv"), Flags: 1 << 0},
	}
}

func TestBatchOpsRoundTrip(t *testing.T) {
	in := sampleOps()
	enc := EncodeOps(nil, in)
	out, err := DecodeOps(enc)
	if err != nil {
		t.Fatalf("DecodeOps: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].Key != in[i].Key ||
			!bytes.Equal(out[i].Value, in[i].Value) || !bytes.Equal(out[i].Aux, in[i].Aux) ||
			out[i].Epoch != in[i].Epoch || out[i].Budget != in[i].Budget ||
			out[i].Partition != in[i].Partition || out[i].Flags != in[i].Flags {
			t.Fatalf("op %d does not round-trip: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchResponsesRoundTrip(t *testing.T) {
	in := []*Response{
		{Status: StatusOK, Value: []byte("hit")},
		{Status: StatusNotFound},
		{Status: StatusWrongOwner, Table: []byte("tbl")},
		{Status: StatusError, Err: "boom"},
		{Status: StatusBusy, RetryAfter: 12345},
	}
	enc := EncodeResponses(nil, in)
	out, err := DecodeResponses(enc)
	if err != nil {
		t.Fatalf("DecodeResponses: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d responses, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Status != in[i].Status || !bytes.Equal(out[i].Value, in[i].Value) ||
			!bytes.Equal(out[i].Table, in[i].Table) || out[i].Err != in[i].Err ||
			out[i].RetryAfter != in[i].RetryAfter {
			t.Fatalf("response %d does not round-trip: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchEnvelopeThroughMessageCodec(t *testing.T) {
	subs := sampleOps()
	env := NewBatchRequest(subs)
	if env.Op != OpBatch {
		t.Fatalf("envelope op = %v", env.Op)
	}
	if env.Epoch != 7 || env.Budget != 1000 {
		t.Fatalf("envelope should inherit max epoch/budget, got epoch=%d budget=%d", env.Epoch, env.Budget)
	}
	dec, err := DecodeRequest(EncodeRequest(nil, env))
	if err != nil {
		t.Fatalf("envelope through message codec: %v", err)
	}
	got, err := DecodeOps(dec.Aux)
	if err != nil || len(got) != len(subs) {
		t.Fatalf("sub-ops after transit: %d, %v", len(got), err)
	}
}

func TestDecodeOpsRejectsNestedBatch(t *testing.T) {
	inner := NewBatchRequest([]*Request{{Op: OpLookup, Key: "k"}})
	enc := EncodeOps(nil, []*Request{inner})
	if _, err := DecodeOps(enc); err == nil {
		t.Fatal("nested batch accepted")
	}
}

func TestUnpackBatchResponses(t *testing.T) {
	subs := []*Response{{Status: StatusOK, Value: []byte("a")}, {Status: StatusNotFound}}
	env := NewBatchResponse(subs)
	got, err := UnpackBatchResponses(env, 2)
	if err != nil || len(got) != 2 || got[0].Status != StatusOK || got[1].Status != StatusNotFound {
		t.Fatalf("unpack: %v %+v", err, got)
	}
	// Count mismatch is a protocol violation, not silently tolerated.
	if _, err := UnpackBatchResponses(env, 3); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// A message-level verdict (busy shed) fans out to every sub-slot.
	busy := &Response{Status: StatusBusy, RetryAfter: 99}
	got, err = UnpackBatchResponses(busy, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("fan-out: %v", err)
	}
	for _, r := range got {
		if r.Status != StatusBusy || r.RetryAfter != 99 {
			t.Fatalf("fan-out response = %+v", r)
		}
	}
}

// TestBatchDecodeNeverPanics is the batch codec's fuzzer, mirroring
// TestDecodeNeverPanics: random soup and bit-flipped valid payloads
// must error or round-trip, never panic.
func TestBatchDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	validOps := EncodeOps(nil, sampleOps())
	validResps := EncodeResponses(nil, []*Response{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusWrongOwner, Table: []byte("t")},
	})
	for i := 0; i < 5000; i++ {
		var b []byte
		switch i % 3 {
		case 0: // pure noise
			b = make([]byte, rng.Intn(128))
			rng.Read(b)
		case 1: // mutated valid op batch
			b = append([]byte(nil), validOps...)
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		case 2: // mutated valid response batch
			b = append([]byte(nil), validResps...)
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if ops, err := DecodeOps(b); err == nil {
			re := EncodeOps(nil, ops)
			if rt, err2 := DecodeOps(re); err2 != nil || len(rt) != len(ops) {
				t.Fatalf("accepted op batch does not round-trip: %v", err2)
			}
		}
		if rs, err := DecodeResponses(b); err == nil {
			re := EncodeResponses(nil, rs)
			if rt, err2 := DecodeResponses(re); err2 != nil || len(rt) != len(rs) {
				t.Fatalf("accepted response batch does not round-trip: %v", err2)
			}
		}
	}
}

// FuzzBatchDecode is the native fuzz entry point for the batch codec's
// slab decoders, requests and responses alike; `go test` runs it over
// the seed corpus (the golden envelopes' payloads among it), `go test
// -fuzz` explores. Whatever the input, a decode must leave nothing
// drawn from the pool and nothing aliasing the input once its slab is
// released, and anything it accepts must round-trip.
func FuzzBatchDecode(f *testing.F) {
	f.Add(EncodeOps(nil, sampleOps()))
	f.Add(EncodeResponses(nil, []*Response{{Status: StatusOK}}))
	f.Add([]byte{})
	for _, c := range goldenCases() {
		if c.subs != nil {
			f.Add(EncodeOps(nil, c.subs))
		} else {
			f.Add(EncodeResponses(nil, c.resps))
		}
	}
	reg := metrics.NewRegistry()
	f.Fuzz(func(t *testing.T, b []byte) {
		EnablePoolMetrics(reg)
		defer EnablePoolMetrics(nil)
		checkSlabDecode(t, reg, b)
	})
}

// TestSlabDecodeFailsAtEverySubOp breaks one sub-message k of a valid
// envelope at a time — its length prefix claiming more than is left,
// or its bytes cut short — so the decode fails after k sub-messages
// went into the slab, and holds the slab to the same rules as the
// fuzzer.
func TestSlabDecodeFailsAtEverySubOp(t *testing.T) {
	reg := metrics.NewRegistry()
	EnablePoolMetrics(reg)
	defer EnablePoolMetrics(nil)
	ops := sampleOps()
	resps := goldenFullResps()
	for _, enc := range [][]byte{EncodeOps(nil, ops), EncodeResponses(nil, resps)} {
		// Walk the item boundaries: count, then (prefix, item) pairs.
		_, rest, _ := uvar(enc)
		for len(rest) > 0 {
			item, next, err := bytesField(rest)
			if err != nil {
				t.Fatal(err)
			}
			start := len(enc) - len(rest) + (len(rest) - len(next) - len(item))
			checkSlabDecode(t, reg, append([]byte(nil), enc[:start+len(item)/2]...))
			bad := append([]byte(nil), enc...)
			bad[start] ^= 0x40 // the item's message tag
			checkSlabDecode(t, reg, bad)
			rest = next
		}
	}
}

// checkSlabDecode decodes b as a request envelope and as a response
// envelope. Each decoder first fills a slab the check holds, which
// after Release must hold only zeroed messages — nothing aliasing b;
// then the pooled entry point must return to the pool every slab it
// drew, on success and on failure alike. Accepted input must
// re-encode to a payload that decodes to as many messages.
func checkSlabDecode(t *testing.T, reg *metrics.Registry, b []byte) {
	t.Helper()
	gets, puts := reg.Counter("zht.wire.pool.gets"), reg.Counter("zht.wire.pool.puts")

	s := getSlab()
	_ = s.decodeOps(b)
	s.Release() // the slab is reused only by this goroutine's next Get
	for i, r := range s.reqs[:cap(s.reqs)] {
		if !reflect.DeepEqual(r, Request{slab: s}) {
			t.Fatalf("released slab request %d still holds %+v", i, r)
		}
	}
	s = getSlab()
	_ = s.decodeResponses(b)
	s.Release()
	for i, r := range s.resps[:cap(s.resps)] {
		if !reflect.DeepEqual(r, Response{slab: s}) {
			t.Fatalf("released slab response %d still holds %+v", i, r)
		}
	}

	before := gets.Value() - puts.Value()
	if ops, err := DecodeOpsSlab(b); err == nil {
		again, err := DecodeOps(EncodeOps(nil, ops.Reqs))
		if err != nil || len(again) != len(ops.Reqs) {
			t.Fatalf("accepted op batch does not round-trip: %v", err)
		}
		ReleaseOps(again)
		ops.Release()
	}
	if held := gets.Value() - puts.Value() - before; held != 0 {
		t.Fatalf("request decode of %x kept %d pooled objects", b, held)
	}
	if rs, err := decodeResponsesSlab(b); err == nil {
		again, err := DecodeResponses(EncodeResponses(nil, rs.Resps))
		if err != nil || len(again) != len(rs.Resps) {
			t.Fatalf("accepted response batch does not round-trip: %v", err)
		}
		ReleaseResponses(again)
		rs.Release()
	}
	if held := gets.Value() - puts.Value() - before; held != 0 {
		t.Fatalf("response decode of %x kept %d pooled objects", b, held)
	}
}

// TestEncodedLenMatchesEncoding pins requestLen and responseLen, which
// EncodeOps and EncodeResponses write as length prefixes, to the
// encoders across varint widths and negative partitions.
func TestEncodedLenMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	num := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
	bytesOf := func() []byte { return make([]byte, rng.Intn(300)) }
	for i := 0; i < 2000; i++ {
		req := &Request{Op: OpInsert, Seq: num(), Epoch: num(), Partition: int64(num()) - int64(num()),
			Hop: uint32(num()), Budget: num(), Key: string(bytesOf()), Value: bytesOf(), Aux: bytesOf(), Version: num()}
		if got, want := requestLen(req), len(EncodeRequest(nil, req)); got != want {
			t.Fatalf("requestLen(%+v) = %d, encoding is %d bytes", req, got, want)
		}
		resp := &Response{Seq: num(), Value: bytesOf(), Table: bytesOf(), Redirect: string(bytesOf()),
			Err: string(bytesOf()), RetryAfter: num(), Epoch: num(), Version: num()}
		if got, want := responseLen(resp), len(EncodeResponse(nil, resp)); got != want {
			t.Fatalf("responseLen(%+v) = %d, encoding is %d bytes", resp, got, want)
		}
	}
}
