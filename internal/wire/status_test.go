package wire

import "testing"

// TestStatusNames requires every assigned status to stringify to a
// name, not the numeric fallback: a status silently missing from
// String() would make shed and error logs unreadable.
func TestStatusNames(t *testing.T) {
	for s := StatusOK; s <= StatusQuorumNotMet; s++ {
		if s == StatusBusy+1 {
			continue // retired
		}
		if got := s.String(); len(got) >= 7 && got[:7] == "status(" {
			t.Errorf("status %d has no name", uint8(s))
		}
	}
}
