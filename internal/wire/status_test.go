package wire

import "testing"

// StatusTooLarge is the terminal verdict of the size-limit gate
// (core.Config MaxKeyLen/MaxValueLen); this test pins its spelling and
// its survival through the response codec, so a client always sees the
// exact status the server issued.
func TestStatusTooLarge(t *testing.T) {
	if got := StatusTooLarge.String(); got != "too-large" {
		t.Errorf("StatusTooLarge.String() = %q, want %q", got, "too-large")
	}
	// Every named status must stringify to a name, not the numeric
	// fallback — a new status silently missing from String() would
	// make shed/error logs unreadable.
	for s := StatusOK; s <= StatusQuorumNotMet; s++ {
		if got := s.String(); len(got) >= 7 && got[:7] == "status(" {
			t.Errorf("status %d has no name", uint8(s))
		}
	}
	enc := EncodeResponse(nil, &Response{Status: StatusTooLarge, Err: "core: value exceeds MaxValueLen"})
	dec, err := DecodeResponse(enc)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if dec.Status != StatusTooLarge {
		t.Errorf("round-tripped status = %v, want %v", dec.Status, StatusTooLarge)
	}
	if dec.Err != "core: value exceeds MaxValueLen" {
		t.Errorf("round-tripped err = %q", dec.Err)
	}
}
