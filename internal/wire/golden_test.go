package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The OpBatch golden files pin the envelope's bytes: a request frame
// carrying sub-requests and a response frame carrying sub-responses,
// once with every optional sub-field set and once with none. The rule
// they enforce is that old bytes keep decoding to the same values and
// that today's encoder reproduces them exactly. Regenerate (only for a
// deliberate format change) with
//
//	go test ./internal/wire -run TestBatchGolden -update
var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// goldenFullOps sets every field a sub-request carries on the wire.
// Bits 0 and 2 of Flags are retired flags, written as literals: the
// pinned bytes still carry them and must decode to the same value.
func goldenFullOps() []*Request {
	return []*Request{
		{Op: OpInsert, Flags: FlagIfAbsent | 1<<2, Seq: 9, Epoch: 12, Partition: 3,
			Key: "key-a", Value: []byte("value-a"), Aux: []byte("aux-a"), Hop: 2, Budget: 250_000,
			Consistency: ConsistencyQuorum, Version: 1 << 40},
		{Op: OpReplicate, Flags: 1<<0 | FlagWholesale, Seq: 1 << 33, Epoch: 1, Partition: -1,
			Key: "key-b", Value: []byte{0, 0xff}, Aux: []byte{byte(OpInsert)}, Hop: 1 << 20, Budget: 1,
			Consistency: ConsistencyAll, Version: 7},
	}
}

// goldenMinOps sets no optional field: op and key only.
func goldenMinOps() []*Request {
	return []*Request{{Op: OpLookup, Key: "k"}, {Op: OpRemove, Key: ""}}
}

func goldenFullResps() []*Response {
	return []*Response{
		{Status: StatusWrongOwner, Seq: 5, Value: []byte("val"), Table: []byte("table"), Redirect: "10.0.0.1:5000",
			Err: "detail", RetryAfter: 1e6, Epoch: 44, Version: 1 << 50},
		{Status: StatusQuorumNotMet, Seq: 1, Value: []byte{1}, Table: []byte{2}, Redirect: "r", Err: "e",
			RetryAfter: 1, Epoch: 1, Version: 1},
	}
}

func goldenMinResps() []*Response {
	return []*Response{{Status: StatusOK}, {Status: StatusNotFound}}
}

// goldenCases names each file and the value it holds.
type goldenCase struct {
	name  string
	subs  []*Request // a request envelope's sub-requests, or nil
	seq   uint64     // the request envelope's Seq
	resps []*Response
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "batch_request_full.bin", subs: goldenFullOps(), seq: 77},
		{name: "batch_request_min.bin", subs: goldenMinOps()},
		{name: "batch_response_full.bin", resps: goldenFullResps()},
		{name: "batch_response_min.bin", resps: goldenMinResps()},
	}
}

// visibleReq and visibleResp drop the fields that never cross the wire.
func visibleReq(r Request) Request {
	r.detach, r.slab = nil, nil
	return r
}

func visibleResp(r Response) Response {
	r.pooledValue, r.slab = false, nil
	return r
}

func TestBatchGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			var enc []byte
			if c.subs != nil {
				env := NewBatchRequest(c.subs)
				env.Seq = c.seq
				enc = EncodeRequest(nil, env)
			} else {
				env := NewBatchResponse(c.resps)
				env.Seq, env.Epoch = 31, 2
				enc = EncodeResponse(nil, env)
			}
			path := filepath.Join("testdata", c.name)
			if *update {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.subs != nil {
				checkGoldenRequest(t, golden, c.seq, c.subs)
			} else {
				checkGoldenResponse(t, golden, c.resps)
			}
			if !bytes.Equal(enc, golden) {
				t.Errorf("encoder output differs from %s:\n got %x\nwant %x", path, enc, golden)
			}
		})
	}
}

// checkGoldenRequest decodes an envelope frame, compares its
// sub-requests with want's, and re-encodes the decoded value.
func checkGoldenRequest(t *testing.T, golden []byte, seq uint64, wantSubs []*Request) {
	t.Helper()
	env, err := DecodeRequest(golden)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope inherits the largest sub-request Epoch and Budget.
	var epoch, budget uint64
	for _, r := range wantSubs {
		epoch, budget = max(epoch, r.Epoch), max(budget, r.Budget)
	}
	if env.Op != OpBatch || env.Seq != seq || env.Epoch != epoch || env.Budget != budget {
		t.Errorf("envelope header = op %s seq %d epoch %d budget %d, want batch %d %d %d",
			env.Op, env.Seq, env.Epoch, env.Budget, seq, epoch, budget)
	}
	subs, err := DecodeOps(env.Aux)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(wantSubs) {
		t.Fatalf("%d sub-requests, want %d", len(subs), len(wantSubs))
	}
	for i := range subs {
		got, w := visibleReq(*subs[i]), visibleReq(*wantSubs[i])
		if !reflect.DeepEqual(got, w) {
			t.Errorf("sub-request %d = %+v, want %+v", i, got, w)
		}
	}
	if re := EncodeRequest(nil, &Request{Op: OpBatch, Seq: env.Seq, Epoch: env.Epoch, Budget: env.Budget,
		Aux: EncodeOps(nil, subs)}); !bytes.Equal(re, golden) {
		t.Errorf("decoded envelope re-encodes differently:\n got %x\nwant %x", re, golden)
	}
}

// checkGoldenResponse decodes an envelope response frame, compares
// its sub-responses with want, and re-encodes the decoded value.
func checkGoldenResponse(t *testing.T, golden []byte, want []*Response) {
	t.Helper()
	env, err := DecodeResponse(golden)
	if err != nil {
		t.Fatal(err)
	}
	if env.Status != StatusOK || env.Seq != 31 || env.Epoch != 2 {
		t.Errorf("envelope header = %s seq %d epoch %d, want ok 31 2", env.Status, env.Seq, env.Epoch)
	}
	rs, err := DecodeResponses(env.Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(want) {
		t.Fatalf("%d sub-responses, want %d", len(rs), len(want))
	}
	for i := range rs {
		got, w := visibleResp(*rs[i]), visibleResp(*want[i])
		if !reflect.DeepEqual(got, w) {
			t.Errorf("sub-response %d = %+v, want %+v", i, got, w)
		}
	}
	if re := EncodeResponse(nil, &Response{Status: env.Status, Seq: env.Seq, Epoch: env.Epoch,
		Value: EncodeResponses(nil, rs)}); !bytes.Equal(re, golden) {
		t.Errorf("decoded envelope re-encodes differently:\n got %x\nwant %x", re, golden)
	}
}
