package tenant

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"zht/internal/metrics"
)

func TestNamespaceCodec(t *testing.T) {
	cases := []struct{ name, key string }{
		{"", "plain-key"},
		{"fusionfs", "inode/42"},
		{"matrix", ""},
		{"a", "k"},
	}
	for _, c := range cases {
		p := Prefix(c.name, c.key)
		gotName, gotKey := Split(p)
		if gotName != c.name || gotKey != c.key {
			t.Errorf("Split(Prefix(%q,%q)) = (%q,%q)", c.name, c.key, gotName, gotKey)
		}
		if c.name == "" && p != c.key {
			t.Errorf("default tenant must keep keys unchanged; got %q", p)
		}
	}
	// Keys without the marker, or malformed, fall to the default tenant.
	for _, raw := range []string{"bare", "", Sep + "noclose"} {
		if name, key := Split(raw); name != "" || key != raw {
			t.Errorf("Split(%q) = (%q,%q), want default tenant + input", raw, name, key)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Split(Sep + "fusionfs" + Sep + "inode/42")
	}); allocs != 0 {
		t.Errorf("Split allocates %.1f times per run, want 0", allocs)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	exp := time.Now().Add(time.Hour).Truncate(time.Millisecond)
	env := Wrap([]byte("payload"), 0xdead, exp)
	val, flags, gotExp, wrapped := Unwrap(env)
	if !wrapped || !bytes.Equal(val, []byte("payload")) || flags != 0xdead || !gotExp.Equal(exp) {
		t.Fatalf("Unwrap = (%q, %#x, %v, %v)", val, flags, gotExp, wrapped)
	}
	if Expired(env) {
		t.Error("future expiry reported expired")
	}
	if !ExpiredAt(env, exp.UnixMilli()) {
		t.Error("expiry instant not reported expired")
	}
	// No expiry: never expires.
	forever := Wrap([]byte("v"), 7, time.Time{})
	if Expired(forever) || ExpiredAt(forever, 1<<62) {
		t.Error("zero-expiry envelope reported expired")
	}
	// Plain values pass through untouched and never expire.
	plain := []byte("just-bytes")
	val, _, _, wrapped = Unwrap(plain)
	if wrapped || !bytes.Equal(val, plain) {
		t.Errorf("plain value mangled: (%q, wrapped=%v)", val, wrapped)
	}
	if Expired(plain) || Expired(nil) || Expired([]byte{0x1d}) {
		t.Error("plain/short value reported expired")
	}
}

func TestTokenBucketShedsAndRefills(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Tenant{Name: "m", Rate: 10, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	a := NewAdmission(reg, AdmissionOptions{Metrics: mreg})
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	key := Prefix("m", "k")
	for i := 0; i < 2; i++ {
		rel, _, ok := a.Admit(key, 1)
		if !ok {
			t.Fatalf("burst request %d shed", i)
		}
		rel()
	}
	_, retry, ok := a.Admit(key, 1)
	if ok {
		t.Fatal("over-burst request admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want ~1/Rate", retry)
	}
	// Advance past the hint: the bucket must have refilled.
	clock = clock.Add(retry + time.Millisecond)
	rel, _, ok := a.Admit(key, 1)
	if !ok {
		t.Fatal("request shed after refill window")
	}
	rel()
	if got := mreg.Counter("zht.tenant.shed").Value(); got != 1 {
		t.Errorf("zht.tenant.shed = %d, want 1", got)
	}
	if got := mreg.Counter("zht.tenant.admitted").Value(); got != 3 {
		t.Errorf("zht.tenant.admitted = %d, want 3", got)
	}
	if got := a.ShedCount("m"); got != 1 {
		t.Errorf("ShedCount(m) = %d, want 1", got)
	}
	// Unregistered tenants (and the default namespace) are unlimited.
	for i := 0; i < 100; i++ {
		rel, _, ok := a.Admit("unscoped-key", 1)
		if !ok {
			t.Fatal("default tenant shed")
		}
		rel()
	}
}

func TestWeightedSharesUnderPressure(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Tenant{Name: "big", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Tenant{Name: "small", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	a := NewAdmission(reg, AdmissionOptions{PressureInflight: 4})

	// Below the pressure threshold weights are dormant.
	rel, _, ok := a.Admit(Prefix("small", "k"), 1)
	if !ok {
		t.Fatal("shed below pressure threshold")
	}
	defer rel()

	// Fill to the threshold with "small" traffic (held inflight).
	var rels []func()
	for i := 0; i < 4; i++ {
		r, _, ok := a.Admit(Prefix("small", "k"), 1)
		if !ok {
			break
		}
		rels = append(rels, r)
	}
	// small now holds well over weight 1/(3+1) of inflight: shed.
	if _, retry, ok := a.Admit(Prefix("small", "k"), 1); ok {
		t.Fatal("over-share tenant admitted under pressure")
	} else if retry <= 0 {
		t.Fatal("weight shed carried no retry hint")
	}
	// big is under its share: admitted even under pressure.
	r, _, ok := a.Admit(Prefix("big", "k"), 1)
	if !ok {
		t.Fatal("under-share tenant shed under pressure")
	}
	r()
	for _, r := range rels {
		r()
	}
	// Pressure released: small admits again.
	r, _, ok = a.Admit(Prefix("small", "k"), 1)
	if !ok {
		t.Fatal("tenant still shed after pressure released")
	}
	r()
}

func TestWeightShedRefundsToken(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Tenant{Name: "a", Rate: 10, Burst: 2, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Tenant{Name: "b", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	a := NewAdmission(reg, AdmissionOptions{PressureInflight: 2})
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	// Fill the gate to the pressure threshold with "b" traffic.
	var rels []func()
	for i := 0; i < 2; i++ {
		r, _, ok := a.Admit(Prefix("b", "k"), 1)
		if !ok {
			t.Fatalf("below-pressure request %d shed", i)
		}
		rels = append(rels, r)
	}
	// Under pressure "a" (weight 1 of 4) is over its share: shed.
	if _, _, ok := a.Admit(Prefix("a", "k"), 1); ok {
		t.Fatal("over-share tenant admitted under pressure")
	}
	for _, r := range rels {
		r()
	}
	// The weight shed must not also have burned a bucket token
	// (regression: one rejected request used to spend both quotas):
	// the full burst of 2 is still available at the same instant.
	for i := 0; i < 2; i++ {
		r, _, ok := a.Admit(Prefix("a", "k"), 1)
		if !ok {
			t.Fatalf("burst token %d missing after weight shed (token not refunded)", i)
		}
		r()
	}
	if _, _, ok := a.Admit(Prefix("a", "k"), 1); ok {
		t.Fatal("over-burst request admitted")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Tenant{Name: "bad" + Sep}); !errors.Is(err, ErrBadName) {
		t.Errorf("reserved separator in name accepted: %v", err)
	}
	if err := reg.Register(Tenant{Name: "t", Rate: 5}); err != nil {
		t.Fatal(err)
	}
	if st, _ := reg.state("t"); st == nil || st.cfg.Burst != 5 || st.cfg.Weight != 1 {
		t.Errorf("defaults not applied: %+v", st)
	}
	// Re-registration replaces, keeping total weight consistent.
	if err := reg.Register(Tenant{Name: "t", Rate: 5, Weight: 4}); err != nil {
		t.Fatal(err)
	}
	if _, tw := reg.state("t"); tw != 4 {
		t.Errorf("totalWeight after replace = %d, want 4", tw)
	}
	// A nil registry admits everything.
	var a *Admission
	if _, _, ok := a.Admit("k", 1); !ok {
		t.Error("nil Admission shed a request")
	}
}
