package gossip

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/metrics"
)

// harness wires a Service to a fake epoch and a recording Pull.
type harness struct {
	epoch  atomic.Uint64
	mu     sync.Mutex
	pulled []string
	// advanceTo, when nonzero, is the epoch a successful pull jumps to.
	advanceTo atomic.Uint64
	peers     func() []string
}

func (h *harness) pull(addr string) bool {
	h.mu.Lock()
	h.pulled = append(h.pulled, addr)
	h.mu.Unlock()
	if to := h.advanceTo.Load(); to > h.epoch.Load() {
		h.epoch.Store(to)
		return true
	}
	return false
}

func (h *harness) sources() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.pulled...)
}

func newHarness(t *testing.T, opts Options) (*harness, *Service) {
	t.Helper()
	h := &harness{}
	opts.Epoch = h.epoch.Load
	opts.Pull = h.pull
	if opts.Peers == nil {
		opts.Peers = func() []string {
			if h.peers == nil {
				return nil
			}
			return h.peers()
		}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return h, s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestObservePullsFromNamedSource(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Millisecond})
	h.epoch.Store(3)
	h.advanceTo.Store(7)
	s.Observe("peer-a", 7)
	waitFor(t, "pull from peer-a", func() bool {
		src := h.sources()
		return len(src) == 1 && src[0] == "peer-a"
	})
	if h.epoch.Load() != 7 {
		t.Fatalf("epoch = %d, want 7", h.epoch.Load())
	}
}

func TestObserveIgnoresStaleAndEqualEpochs(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Millisecond})
	h.epoch.Store(5)
	s.Observe("peer-a", 0)
	s.Observe("peer-a", 4)
	s.Observe("peer-a", 5)
	time.Sleep(20 * time.Millisecond)
	if n := len(h.sources()); n != 0 {
		t.Fatalf("%d pulls for non-newer epochs, want 0", n)
	}
}

func TestObserveCoalescesBursts(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Second})
	h.advanceTo.Store(9)
	for i := 0; i < 50; i++ {
		s.Observe("peer-a", 9)
	}
	waitFor(t, "first pull", func() bool { return len(h.sources()) >= 1 })
	// Within the cooldown every further observation must be swallowed.
	for i := 0; i < 50; i++ {
		s.Observe("peer-a", 11)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(h.sources()); n != 1 {
		t.Fatalf("%d pulls during cooldown, want 1", n)
	}
}

func TestFallbackPeersWhenSourceUnknown(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Millisecond})
	h.peers = func() []string { return []string{"p1", "p2", "p3", "p4", "p5"} }
	// Pull never advances, so the round walks the fallback list.
	s.Observe("", 5)
	waitFor(t, "fallback pulls", func() bool { return len(h.sources()) >= maxFallback })
	time.Sleep(20 * time.Millisecond)
	if n := len(h.sources()); n != maxFallback {
		t.Fatalf("%d pulls from 5 peers, want exactly maxFallback=%d", n, maxFallback)
	}
	for _, src := range h.sources() {
		if src == "" {
			t.Fatal("round pulled from the empty source")
		}
	}
}

func TestFallbackStopsOnceCurrent(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Millisecond})
	h.peers = func() []string { return []string{"p1", "p2", "p3"} }
	h.advanceTo.Store(6)
	s.Observe("", 6)
	waitFor(t, "one pull", func() bool { return len(h.sources()) >= 1 })
	time.Sleep(20 * time.Millisecond)
	if n := len(h.sources()); n != 1 {
		t.Fatalf("%d pulls after reaching target, want 1", n)
	}
}

func TestCloseWaitsAndStopsRounds(t *testing.T) {
	h, s := newHarness(t, Options{Cooldown: time.Millisecond})
	h.advanceTo.Store(2)
	s.Observe("peer-a", 2)
	s.Close()
	before := len(h.sources())
	s.Observe("peer-a", 99)
	time.Sleep(20 * time.Millisecond)
	if n := len(h.sources()); n != before {
		t.Fatalf("pull after Close: %d -> %d", before, n)
	}
}

func TestNilServiceIsSafe(t *testing.T) {
	var s *Service
	s.Observe("peer", 99)
	s.Close()
}

func TestNewRequiresCallbacks(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty Options")
	}
	if _, err := New(Options{Epoch: func() uint64 { return 0 }}); err == nil {
		t.Fatal("New accepted Options without Pull")
	}
}

func TestMetricsCount(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &harness{}
	s, err := New(Options{
		Epoch:    h.epoch.Load,
		Pull:     h.pull,
		Cooldown: time.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h.advanceTo.Store(4)
	s.Observe("peer-a", 4)
	waitFor(t, "metrics", func() bool {
		return reg.Counter("zht.membership.gossip.advanced").Value() == 1
	})
	if v := reg.Counter("zht.membership.stale_detected").Value(); v != 1 {
		t.Fatalf("stale_detected = %d, want 1", v)
	}
	if v := reg.Counter("zht.membership.gossip.pulls").Value(); v != 1 {
		t.Fatalf("pulls = %d, want 1", v)
	}
}

func TestPayloadDeltasRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{[]byte("one")},
		{[]byte("a"), []byte(""), []byte("ccc")},
		{bytes.Repeat([]byte{0xfe}, 300)},
	}
	for i, frames := range cases {
		got, table, err := DecodePull(EncodeDeltas(frames))
		if err != nil || table != nil {
			t.Fatalf("case %d: err=%v table=%v", i, err, table)
		}
		if len(got) != len(frames) {
			t.Fatalf("case %d: %d frames, want %d", i, len(got), len(frames))
		}
		for j := range frames {
			if !bytes.Equal(got[j], frames[j]) {
				t.Fatalf("case %d frame %d mismatch", i, j)
			}
		}
	}
}

func TestPayloadTableRoundTrip(t *testing.T) {
	enc := []byte("ZHTT-encoded-table")
	frames, table, err := DecodePull(EncodeFullTable(enc))
	if err != nil || frames != nil {
		t.Fatalf("err=%v frames=%v", err, frames)
	}
	if !bytes.Equal(table, enc) {
		t.Fatalf("table = %q, want %q", table, enc)
	}
}

func TestPayloadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'G'},
		{'X', 'D', 0},
		{'G', 'Z', 1},
		{'G', 'T'},            // table kind with no table
		{'G', 'D', 2, 1, 'a'}, // count 2 but one frame
		{'G', 'D', 1, 5, 'a'}, // frame length overruns
		append(EncodeDeltas([][]byte{[]byte("x")}), 0), // trailing junk
		{'G', 'D', 0xff, 0xff, 0xff, 0xff, 0x7f},       // count bomb
	}
	for i, b := range cases {
		if _, _, err := DecodePull(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}
