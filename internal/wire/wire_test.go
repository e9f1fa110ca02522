package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpInsert, Key: "k", Value: []byte("v")},
		{Op: OpLookup, Seq: 42, Epoch: 7, Key: "some/longer/key-000001"},
		{Op: OpRemove, Key: ""},
		{Op: OpAppend, Key: "dir", Value: []byte("entry,"), Flags: 1 << 0}, // a retired bit still round-trips
		{Op: OpCas, Key: "task", Value: []byte("new"), Aux: []byte("old")},
		{Op: OpMigrate, Partition: 1023, Aux: bytes.Repeat([]byte{0xab}, 4096)},
		{Op: OpReplicate, Partition: -1, Flags: 1 << 2, Key: "k", Value: []byte("v")},
		{Op: OpBroadcast, Hop: 12, Key: "announce", Value: []byte("x")},
		{Op: OpPing, Seq: 1<<63 + 5},
		{Op: OpDelta, Aux: []byte("ZHTD...")},
		{Op: OpInsert, Key: "deadline", Value: []byte("v"), Budget: 1_500_000_000},
		{Op: OpInsert, Key: "lvl", Value: []byte("v"), Consistency: ConsistencyAll},
		{Op: OpLookup, Key: "lvl", Consistency: ConsistencyQuorum, Flags: FlagReplicaRead},
		{Op: OpReplicate, Partition: 3, Key: "ver", Value: []byte("v"), Version: 1<<48 + 9},
	}
	for i, r := range cases {
		enc := EncodeRequest(nil, r)
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Seq: 9, Value: []byte("hello")},
		{Status: StatusNotFound, Seq: 1},
		{Status: StatusWrongOwner, Table: []byte("ZHTT-encoded")},
		{Status: StatusMigrating, Redirect: "10.0.0.9:5000"},
		{Status: StatusCasMismatch, Value: []byte("current")},
		{Status: StatusError, Err: "novoht: disk full"},
		{Status: StatusBusy, Seq: 3, RetryAfter: 2_000_000},
		{Status: StatusOK, Seq: 4, Epoch: 17},
		{Status: StatusWrongOwner, Table: []byte("ZHTT-encoded"), Epoch: 1<<40 + 3},
		{Status: StatusOK, Value: []byte("versioned"), Version: 1<<52 + 77},
	}
	for i, r := range cases {
		got, err := DecodeResponse(EncodeResponse(nil, r))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seq, epoch, budget, version uint64, part int64, key string, val, aux []byte, flags, level uint8, hop uint32) bool {
		in := &Request{
			Op: OpInsert, Flags: flags, Seq: seq, Epoch: epoch,
			Partition: part, Key: key, Value: val, Aux: aux, Hop: hop,
			Budget:      budget,
			Consistency: Consistency(level % uint8(consistencyMax)),
			Version:     version,
		}
		if len(in.Value) == 0 {
			in.Value = nil
		}
		if len(in.Aux) == 0 {
			in.Aux = nil
		}
		got, err := DecodeRequest(EncodeRequest(nil, in))
		return err == nil && reflect.DeepEqual(in, got)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seq, retryAfter, epoch, version uint64, val, table []byte, redirect, errs string, status uint8) bool {
		in := &Response{
			Status: Status(status % 8), Seq: seq, Value: val,
			Table: table, Redirect: redirect, Err: errs,
			RetryAfter: retryAfter, Epoch: epoch, Version: version,
		}
		if len(in.Value) == 0 {
			in.Value = nil
		}
		if len(in.Table) == 0 {
			in.Table = nil
		}
		got, err := DecodeResponse(EncodeResponse(nil, in))
		return err == nil && reflect.DeepEqual(in, got)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'Q'},
		{'X', 1, 0},
		{'Q', 0, 0},    // OpNop invalid on the wire
		{'Q', 200, 0},  // op out of range
		{'Q', 1, 0, 0}, // truncated after flags+one varint byte
	}
	for i, b := range cases {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestDecodeRequestTruncation(t *testing.T) {
	full := EncodeRequest(nil, &Request{
		Op: OpCas, Seq: 300, Epoch: 9, Partition: 77,
		Key: "task-00042", Value: []byte("running"), Aux: []byte("queued"),
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRequest(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// Trailing junk must also be rejected.
	if _, err := DecodeRequest(append(full, 0)); err == nil {
		t.Error("trailing junk accepted")
	}
}

func TestDecodeResponseTruncation(t *testing.T) {
	full := EncodeResponse(nil, &Response{
		Status: StatusWrongOwner, Seq: 12, Value: []byte("v"),
		Table: []byte("table-bytes"), Redirect: "a:1", Err: "e",
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResponse(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestDecodeLengthBomb(t *testing.T) {
	// A request whose key length claims 2^40 bytes must be rejected
	// without allocating.
	b := []byte{'Q', byte(OpLookup), 0, 0, 0, 0, 0}
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
	if _, err := DecodeRequest(b); err == nil {
		t.Error("length bomb accepted")
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	out := EncodeRequest(prefix, &Request{Op: OpPing})
	if !bytes.HasPrefix(out, prefix) {
		t.Error("EncodeRequest did not append to dst")
	}
	got, err := DecodeRequest(out[len(prefix):])
	if err != nil || got.Op != OpPing {
		t.Errorf("decode after prefix: %v %+v", err, got)
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty string", op)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Error("unknown op should format numerically")
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusError; s++ {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
	if Status(99).String() != "status(99)" {
		t.Error("unknown status should format numerically")
	}
}

// The paper's workload: 15-byte keys, 132-byte values. Encoding must
// stay compact — within a few bytes of the raw payload.
func TestEncodingOverhead(t *testing.T) {
	r := &Request{Op: OpInsert, Key: "key-0000000001", Value: bytes.Repeat([]byte{'v'}, 132)}
	enc := EncodeRequest(nil, r)
	overhead := len(enc) - len(r.Key) - len(r.Value)
	if overhead > 16 {
		t.Errorf("encoding overhead %d bytes for the paper workload; want <= 16", overhead)
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	r := &Request{Op: OpInsert, Key: "key-0000000001", Value: bytes.Repeat([]byte{'v'}, 132)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeRequest(buf[:0], r)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	enc := EncodeRequest(nil, &Request{Op: OpInsert, Key: "key-0000000001", Value: bytes.Repeat([]byte{'v'}, 132)})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(enc); err != nil {
			b.Fatal(err)
		}
	}
}
