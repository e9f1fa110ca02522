package wire

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// checkRequestCopy holds CopyRequest(r) to the codec round trip
// DecodeRequest(EncodeRequest(nil, r)): the same message or the same
// refusal, and the encoded size either way. The copy must not alias r:
// overwriting r's byte fields afterwards leaves it unchanged.
func checkRequestCopy(t *testing.T, r *Request) {
	t.Helper()
	enc := EncodeRequest(nil, r)
	want, werr := DecodeRequest(enc)
	got, buf, size, err := CopyRequest(r)
	if size != len(enc) {
		t.Fatalf("CopyRequest size = %d, want len(EncodeRequest) = %d", size, len(enc))
	}
	if werr != nil || err != nil {
		if werr == nil || err == nil || err.Error() != werr.Error() {
			t.Fatalf("CopyRequest error = %v, codec round trip error = %v", err, werr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CopyRequest = %+v, codec round trip = %+v", got, want)
	}
	scribble(r.Value, r.Aux)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CopyRequest aliases its source: %+v after the source changed, want %+v", got, want)
	}
	PutRequest(got)
	PutBuffer(buf)
}

// checkResponseCopy is checkRequestCopy for CopyResponse and
// DecodeResponse(EncodeResponse(nil, r)).
func checkResponseCopy(t *testing.T, r *Response) {
	t.Helper()
	enc := EncodeResponse(nil, r)
	want, werr := DecodeResponse(enc)
	got, size, err := CopyResponse(r)
	if size != len(enc) {
		t.Fatalf("CopyResponse size = %d, want len(EncodeResponse) = %d", size, len(enc))
	}
	if werr != nil || err != nil {
		if werr == nil || err == nil || err.Error() != werr.Error() {
			t.Fatalf("CopyResponse error = %v, codec round trip error = %v", err, werr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CopyResponse = %+v, codec round trip = %+v", got, want)
	}
	scribble(r.Value, r.Table)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CopyResponse aliases its source: %+v after the source changed, want %+v", got, want)
	}
	PutResponse(got)
}

func scribble(bs ...[]byte) {
	for _, b := range bs {
		for i := range b {
			b[i] ^= 0xff
		}
	}
}

// FuzzCopyMatchesCodec is the native fuzz entry point for the copy
// functions: for every input that decodes as a request or a response,
// the copy of the decoded message must equal its codec round trip and
// report its encoded size. `go test` runs it over the seed corpus (the
// golden frames in testdata/ among it), `go test -fuzz` explores.
func FuzzCopyMatchesCodec(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden frames in testdata: %v", err)
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The golden sub-messages as frames of their own: every field set,
	// and none.
	for _, r := range append(goldenFullOps(), goldenMinOps()...) {
		f.Add(EncodeRequest(nil, r))
	}
	for _, r := range append(goldenFullResps(), goldenMinResps()...) {
		f.Add(EncodeResponse(nil, r))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := DecodeRequest(b); err == nil {
			r.Value, r.Aux = clone(r.Value), clone(r.Aux) // scribbled on, so not b
			checkRequestCopy(t, r)
		}
		if r, err := DecodeResponse(b); err == nil {
			r.Value, r.Table = clone(r.Value), clone(r.Table)
			checkResponseCopy(t, r)
		}
	})
}

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte{}, b...)
}

// TestCopyRefusalParity pins that the copy functions refuse what the
// codec round trip refuses, with the decoder's errors, and normalise
// what it normalises.
func TestCopyRefusalParity(t *testing.T) {
	for _, r := range []*Request{
		{Op: OpNop, Key: "k"},
		{Op: opMax, Key: "k"},
		{Op: 0xff, Key: "k"},
		{Op: OpLookup, Key: "k", Consistency: consistencyMax},
		{Op: OpLookup, Key: "k", Consistency: 0xff},
		{Op: OpNop, Key: "k", Consistency: 0xff}, // the op is refused first
		{Op: OpInsert, Key: "k", Value: []byte{}, Aux: []byte{}},
		{Op: OpInsert, Key: "k", Value: []byte{}, Aux: []byte("aux")},
		{Op: OpInsert, Key: "k", Value: []byte("v"), Aux: []byte{}},
		{Op: opMax - 1, Key: "", Consistency: consistencyMax - 1, Partition: -1 << 62, Hop: 1<<32 - 1,
			Seq: 1<<64 - 1, Epoch: 1 << 63, Budget: 1, Version: 1<<64 - 1, Flags: 0xff},
	} {
		checkRequestCopy(t, r)
	}
	for _, r := range []*Response{
		{Status: 0xff},
		{Status: StatusOK, Value: []byte{}, Table: []byte{}},
		{Status: StatusOK, Value: []byte("v"), Table: []byte{}},
		{Status: StatusWrongOwner, Value: []byte{}, Table: []byte("t")},
		{Status: StatusBusy, Seq: 1<<64 - 1, RetryAfter: 1 << 40, Epoch: 7, Version: 1<<64 - 1},
	} {
		checkResponseCopy(t, r)
	}
	// A field longer than the decoder's cap is refused as malformed.
	// The value is never written, so it costs no memory; the codec side
	// of this refusal is bytesField's maxString check.
	huge := make([]byte, maxString+1)
	if _, _, _, err := CopyRequest(&Request{Op: OpInsert, Key: "k", Value: huge}); !errors.Is(err, errMalformed) {
		t.Fatalf("CopyRequest of an oversized value: %v, want %v", err, errMalformed)
	}
	if _, _, err := CopyResponse(&Response{Table: huge}); !errors.Is(err, errMalformed) {
		t.Fatalf("CopyResponse of an oversized table: %v, want %v", err, errMalformed)
	}
}
