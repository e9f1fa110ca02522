package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/tenant"
	"zht/internal/wire"
)

// Core-side coverage of the tenancy subsystem (DESIGN.md §13): the
// admission hook, TTL lazy expiry + reaping, and the batch busy-hint
// regression.

func TestAdmissionHookShedsOverQuota(t *testing.T) {
	treg := tenant.NewRegistry()
	if err := treg.Register(tenant.Tenant{Name: "noisy", Rate: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	cfg := testCfg()
	cfg.Metrics = mreg
	cfg.Admission = tenant.NewAdmission(treg, tenant.AdmissionOptions{Metrics: mreg})
	d, _, _ := startDeployment(t, cfg, 2)

	// The gate runs ahead of routing, so any instance can be asked
	// directly: first request spends the burst, second is shed with a
	// Busy verdict and a positive backoff hint.
	in := d.Instance(0)
	key := tenant.Prefix("noisy", "k")
	r1 := in.Handle(&wire.Request{Op: wire.OpLookup, Key: key})
	if r1.Status == wire.StatusBusy {
		t.Fatalf("first request shed: %v", r1.Status)
	}
	r2 := in.Handle(&wire.Request{Op: wire.OpLookup, Key: key})
	if r2.Status != wire.StatusBusy {
		t.Fatalf("over-quota request not shed: %v", r2.Status)
	}
	if r2.RetryAfter == 0 {
		t.Error("shed response carries no RetryAfter hint")
	}
	// Internal traffic bypasses the gate even while the bucket is dry.
	r3 := in.Handle(&wire.Request{Op: wire.OpLookup, Key: key, Flags: wire.FlagReplicaRead})
	if r3.Status == wire.StatusBusy {
		t.Error("replica read was charged against the tenant quota")
	}
	// Other tenants are untouched.
	r4 := in.Handle(&wire.Request{Op: wire.OpLookup, Key: "unscoped"})
	if r4.Status == wire.StatusBusy {
		t.Error("default tenant shed by a neighbour's dry bucket")
	}
	if got := mreg.Counter("zht.tenant.shed").Value(); got < 1 {
		t.Errorf("zht.tenant.shed = %d, want >= 1", got)
	}
	// The batch path sheds per-slot: the noisy slot gets Busy, the
	// sibling slot proceeds.
	sub1 := &wire.Request{Op: wire.OpLookup, Key: key}
	sub2 := &wire.Request{Op: wire.OpLookup, Key: "unscoped"}
	env := in.Handle(wire.NewBatchRequest([]*wire.Request{sub1, sub2}))
	brs, err := wire.DecodeResponses(env.Value)
	if err != nil {
		t.Fatal(err)
	}
	if brs[0].Status != wire.StatusBusy {
		t.Errorf("batched over-quota slot = %v, want Busy", brs[0].Status)
	}
	if brs[1].Status == wire.StatusBusy {
		t.Error("batched default-tenant slot shed")
	}
}

func TestTTLLazyExpiryAndReap(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 16,
		Replicas:      1,
		AntiEntropy:   20 * time.Millisecond,
		RetryBase:     time.Millisecond,
		Metrics:       mreg,
	}
	d, _, c := startDeployment(t, cfg, 2)

	// A live envelope reads back verbatim (unwrapping is the caller's
	// business — core stores envelopes as opaque values).
	live := tenant.Wrap([]byte("fresh"), 7, time.Now().Add(time.Hour))
	if err := c.Insert("ttl-live", live); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("ttl-live")
	if err != nil {
		t.Fatal(err)
	}
	val, flags, _, wrapped := tenant.Unwrap(got)
	if !wrapped || string(val) != "fresh" || flags != 7 {
		t.Fatalf("round-tripped envelope = (%q, %d, %v)", val, flags, wrapped)
	}

	// An expired envelope answers NotFound on read (lazy expiry)...
	if err := c.Insert("ttl-dead", tenant.Wrap([]byte("stale"), 0, time.Now().Add(-time.Second))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("ttl-dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired lookup: got %v, want ErrNotFound", err)
	}
	if got := mreg.Counter("zht.tenant.expired_reads").Value(); got < 1 {
		t.Errorf("zht.tenant.expired_reads = %d, want >= 1", got)
	}
	// ...counts as absent for conditional inserts (memcached add)...
	if err := c.InsertIfAbsent("ttl-dead", []byte("reborn")); err != nil {
		t.Fatalf("add over expired pair: %v", err)
	}
	if v, err := c.Lookup("ttl-dead"); err != nil || string(v) != "reborn" {
		t.Fatalf("post-add lookup = %q, %v", v, err)
	}
	// ...and is deleted by the reaper riding the anti-entropy tick.
	if err := c.Insert("ttl-reap", tenant.Wrap([]byte("gone"), 0, time.Now().Add(-time.Second))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mreg.Counter("zht.tenant.reaped").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never deleted the expired pair")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Drain()
}

// busyHintCaller sheds the first batch envelope with mixed RetryAfter
// hints — the SMALLEST in slot 0, so the pre-fix code (which honored
// only rs[0]) would sleep far too little — then serves the retry.
type busyHintCaller struct {
	mu         sync.Mutex
	batchCalls int
	small, big time.Duration
}

func (f *busyHintCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	return &wire.Response{Status: wire.StatusOK}, nil
}

func (f *busyHintCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	f.mu.Lock()
	f.batchCalls++
	n := f.batchCalls
	f.mu.Unlock()
	rs := make([]*wire.Response, len(reqs))
	if n == 1 {
		for i := range rs {
			hint := f.big
			if i == 0 {
				hint = f.small
			}
			rs[i] = &wire.Response{Status: wire.StatusBusy, RetryAfter: uint64(hint)}
		}
		return rs, nil
	}
	for i := range rs {
		rs[i] = &wire.Response{Status: wire.StatusOK}
	}
	return rs, nil
}

func (f *busyHintCaller) Close() error { return nil }

func TestBatchBusyRetryHonorsMaxHint(t *testing.T) {
	tab, err := ring.New(8, []ring.Instance{{ID: "a", Addr: "a", Node: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	fake := &busyHintCaller{small: time.Millisecond, big: 150 * time.Millisecond}
	c, err := NewClient(Config{
		NumPartitions: 8,
		opRetries:     2,
		RetryBase:     time.Millisecond,
		retryMax:      2 * time.Millisecond,
		OpDeadline:    5 * time.Second,
	}, tab, fake)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, err := c.Batch([]BatchOp{
		{Op: wire.OpInsert, Key: "h1", Value: []byte("v")},
		{Op: wire.OpInsert, Key: "h2", Value: []byte("v")},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Errorf("slot %d: %v", i, r.Err)
		}
	}
	if fake.batchCalls < 2 {
		t.Fatalf("batch never retried (calls = %d)", fake.batchCalls)
	}
	// The retry must wait at least the LARGEST hint in the shed
	// envelope; honoring only rs[0] (the old bug) would return in ~1ms.
	if elapsed < fake.big {
		t.Errorf("busy retry slept %v, want >= %v (max hint across sub-responses)", elapsed, fake.big)
	}
}
