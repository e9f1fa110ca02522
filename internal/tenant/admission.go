package tenant

import (
	"sync"
	"time"

	"zht/internal/metrics"
)

// Admission is the per-tenant quota gate. Installed as
// core.Config.Admission, it is the core.AdmissionHook that
// Instance.admit consults — the node's one request gate — and it
// protects tenants from each other with two policies:
//
//  1. Token buckets: a tenant with Rate > 0 holds a bucket of Burst
//     tokens refilled at Rate/s; each admitted request spends one.
//     An empty bucket sheds the request with a RetryAfter hint equal
//     to the time until the next token, which the existing client
//     backoff honors (DESIGN.md §9).
//  2. Weighted shares: once total inflight through the gate reaches
//     PressureInflight, a tenant whose share of inflight requests
//     exceeds Weight/ΣWeight is shed. Below the threshold weights are
//     dormant, so an idle deployment never sheds on weight. A weight
//     shed refunds the token the request spent in (1): one rejected
//     request costs at most one quota, never both.
//
// Admission implements core.AdmissionHook structurally (this package
// does not import core). A nil *Admission admits everything.
type Admission struct {
	reg *Registry
	// pressure is the total-inflight threshold past which weighted
	// shares engage; <= 0 disables weighted shedding.
	pressure int

	mu    sync.Mutex
	total int // inflight requests currently admitted

	met  Metrics
	now  func() time.Time  // test hook
	shed map[string]*int64 // per-tenant shed tallies (ShedCount)
	smu  sync.Mutex
}

// AdmissionOptions tunes the gate beyond per-tenant policy.
type AdmissionOptions struct {
	// PressureInflight is the total admitted-inflight level at which
	// weighted shares engage; <= 0 disables weighted shedding.
	PressureInflight int
	// Metrics receives zht.tenant.* instruments; nil = no-op.
	Metrics *metrics.Registry
}

// weightRetryAfter is the RetryAfter hint attached to weight sheds
// (bucket sheds compute an exact hint instead).
const weightRetryAfter = 2 * time.Millisecond

// NewAdmission builds the quota gate over a tenant registry.
func NewAdmission(reg *Registry, opts AdmissionOptions) *Admission {
	return &Admission{
		reg:      reg,
		pressure: opts.PressureInflight,
		met:      NewMetrics(opts.Metrics),
		now:      time.Now,
		shed:     make(map[string]*int64),
	}
}

// Admit asks whether a request against key (possibly namespaced) may
// proceed. cost is the request's payload size in bytes; the current
// policy charges one token per request regardless, but cost is part
// of the contract so byte-weighted quotas stay a policy change, not
// an interface change. On ok, release must be called exactly once
// when the request completes. On shed, retryAfter is the client
// backoff hint.
func (a *Admission) Admit(key string, cost int) (release func(), retryAfter time.Duration, ok bool) {
	if a == nil {
		return nil, 0, true
	}
	_ = cost
	name, _ := Split(key)
	st, totalWeight := a.reg.state(name)

	tookToken := false
	if st != nil && st.cfg.Rate > 0 {
		if wait := st.takeToken(a.now()); wait > 0 {
			a.met.Shed.Inc()
			a.countShed(name)
			return nil, wait, false
		}
		tookToken = true
	}

	a.mu.Lock()
	if st != nil && a.pressure > 0 && a.total >= a.pressure && totalWeight > 0 {
		// Under pressure: shed tenants holding more than their share.
		st.imu.Lock()
		over := (st.inflight+1)*totalWeight > (a.total+1)*st.cfg.Weight
		st.imu.Unlock()
		if over {
			a.mu.Unlock()
			if tookToken {
				// The request never ran: a weight shed must not also
				// burn rate quota, or overload double-penalizes the
				// tenant (one request, two quotas spent).
				st.refundToken()
			}
			a.met.Shed.Inc()
			a.countShed(name)
			return nil, weightRetryAfter, false
		}
	}
	a.total++
	a.mu.Unlock()
	if st != nil {
		st.imu.Lock()
		st.inflight++
		st.imu.Unlock()
	}
	a.met.Admitted.Inc()
	a.met.Inflight.Add(1)
	return func() {
		a.mu.Lock()
		a.total--
		a.mu.Unlock()
		if st != nil {
			st.imu.Lock()
			st.inflight--
			st.imu.Unlock()
		}
		a.met.Inflight.Add(-1)
	}, 0, true
}

// takeToken refills the bucket to now and spends one token; a
// positive return is the wait until a token will be available.
func (s *tenantState) takeToken(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.last.IsZero() {
		s.tokens += now.Sub(s.last).Seconds() * s.cfg.Rate
		if s.tokens > s.cfg.Burst {
			s.tokens = s.cfg.Burst
		}
	}
	s.last = now
	if s.tokens < 1 {
		return time.Duration((1 - s.tokens) / s.cfg.Rate * float64(time.Second))
	}
	s.tokens--
	return 0
}

// refundToken returns a spent token to the bucket, capped at Burst —
// used when a request that passed the bucket is shed by a later
// policy stage before doing any work.
func (s *tenantState) refundToken() {
	s.mu.Lock()
	s.tokens++
	if s.tokens > s.cfg.Burst {
		s.tokens = s.cfg.Burst
	}
	s.mu.Unlock()
}

// countShed tallies a shed against its tenant. The registry-level
// zht.tenant.shed counter is the aggregate; per-tenant tallies are
// plain in-process counts so dynamic tenant names never mint metric
// names outside the canonical catalogue.
func (a *Admission) countShed(name string) {
	a.smu.Lock()
	c, ok := a.shed[name]
	if !ok {
		c = new(int64)
		a.shed[name] = c
	}
	*c++
	a.smu.Unlock()
}

// ShedCount returns how many requests have been shed for tenant name
// since the gate was built (for smokes and tests).
func (a *Admission) ShedCount(name string) int64 {
	if a == nil {
		return 0
	}
	a.smu.Lock()
	defer a.smu.Unlock()
	if c, ok := a.shed[name]; ok {
		return *c
	}
	return 0
}
