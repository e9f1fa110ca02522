// Package tenant is ZHT's multi-tenancy layer: keyspace namespaces,
// per-tenant admission quotas, and the TTL value envelope for
// cache-shaped workloads.
//
// The paper positions ZHT as shared infrastructure — FusionFS
// metadata, IStore, and MATRIX all ride one table (§V) — but the core
// treats every key and every request identically, so one noisy client
// system can take every request slot a node serves and starve the
// rest. This package makes the sharing explicit while leaving the
// routing/replication/repair core untouched:
//
//   - Namespaces: a tenant's keys are prefixed below the client API
//     (Prefix/Split), so two tenants' identical user keys land on
//     different ring keys and cannot collide. Routing hashes the
//     prefixed key like any other — zero hops, no new metadata.
//   - Admission: per-tenant token-bucket rate limits plus weighted
//     inflight shares, installed as core.Config.Admission — the
//     core.AdmissionHook that Instance.admit consults, the node's one
//     request gate. Over-quota requests are shed with wire.StatusBusy
//     and a RetryAfter hint, so the client's existing backoff/breaker
//     machinery handles them for free.
//   - TTL: cache-shaped writers (the memcached gateway) stamp an
//     expiry into the stored value envelope (see envelope.go). Reads
//     treat an expired envelope as absent (lazy expiry, enforced in
//     internal/core's apply path) and a background reaper riding the
//     anti-entropy tick deletes expired pairs so replicas converge on
//     expiry.
//
// The import direction is deliberate: this package depends only on
// internal/metrics, and internal/core depends on it (for the envelope
// expiry check and the reaper). The Admission type implements core's
// AdmissionHook interface structurally, without naming it.
package tenant

import (
	"errors"
	"strings"
	"sync"
	"time"

	"zht/internal/metrics"
)

// Sep frames the tenant name inside a namespaced key:
// Sep + name + Sep + userKey. The byte (ASCII group separator, 0x1d)
// is reserved — user keys and tenant names must not contain it, and a
// key that does not START with it belongs to the default tenant "".
const Sep = "\x1d"

// ErrBadName reports a tenant name containing the reserved separator
// byte.
var ErrBadName = errors.New("tenant: name contains reserved separator")

// Prefix namespaces a user key into tenant name's keyspace. The
// default tenant "" owns the un-prefixed keyspace, so pre-tenancy
// deployments keep their keys unchanged.
func Prefix(name, key string) string {
	if name == "" {
		return key
	}
	return Sep + name + Sep + key
}

// Split recovers (tenant name, user key) from a possibly-namespaced
// key. Keys without the leading separator belong to the default
// tenant "". Split never allocates: both results alias the input.
func Split(key string) (name, userKey string) {
	if len(key) == 0 || key[0] != Sep[0] {
		return "", key
	}
	rest := key[1:]
	i := strings.IndexByte(rest, Sep[0])
	if i < 0 {
		return "", key // malformed; treat as default tenant
	}
	return rest[:i], rest[i+1:]
}

// Tenant is one tenant's declared admission policy. The zero value
// (and the default tenant "") is unlimited: no quota, no weight
// pressure.
type Tenant struct {
	// Name identifies the tenant; it is the namespace prefix.
	Name string
	// Rate is the tenant's token-bucket refill rate in requests per
	// second; <= 0 means unlimited (no bucket).
	Rate float64
	// Burst is the bucket capacity; <= 0 defaults to max(1, Rate).
	Burst float64
	// Weight is the tenant's share of admission capacity under
	// pressure (see Admission); <= 0 means 1.
	Weight int
}

// tenantState is a registered tenant plus its runtime admission
// state.
type tenantState struct {
	cfg Tenant

	mu     sync.Mutex // guards the token bucket
	tokens float64
	last   time.Time

	imu      sync.Mutex // guards inflight (cold path only under pressure)
	inflight int
}

// Registry holds the deployment's declared tenants. A nil *Registry
// is valid and knows only the unlimited default tenant.
type Registry struct {
	mu          sync.RWMutex
	tenants     map[string]*tenantState
	totalWeight int
}

// NewRegistry creates an empty tenant registry. The default tenant ""
// (unlimited) is always implicitly present.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*tenantState)}
}

// Register declares (or replaces) a tenant's policy.
func (r *Registry) Register(t Tenant) error {
	if strings.Contains(t.Name, Sep) {
		return ErrBadName
	}
	if t.Burst <= 0 {
		t.Burst = t.Rate
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	if t.Weight <= 0 {
		t.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.tenants[t.Name]; ok {
		r.totalWeight -= old.cfg.Weight
	}
	r.tenants[t.Name] = &tenantState{cfg: t, tokens: t.Burst}
	r.totalWeight += t.Weight
	return nil
}

// state resolves the runtime state for a tenant name; unregistered
// names (including the default tenant) return nil = unlimited.
func (r *Registry) state(name string) (*tenantState, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name], r.totalWeight
}

// Metrics bundles the tenancy layer's registry-shared instruments;
// see OBSERVABILITY.md "Tenancy".
type Metrics struct {
	// Admitted / Shed count admission verdicts across all tenants.
	Admitted *metrics.Counter // zht.tenant.admitted
	Shed     *metrics.Counter // zht.tenant.shed
	// Inflight is the requests currently inside the admission hook.
	Inflight *metrics.Gauge // zht.tenant.inflight
}

// NewMetrics resolves the tenancy instruments (nil registry = no-ops).
func NewMetrics(reg *metrics.Registry) Metrics {
	return Metrics{
		Admitted: reg.Counter("zht.tenant.admitted"),
		Shed:     reg.Counter("zht.tenant.shed"),
		Inflight: reg.Gauge("zht.tenant.inflight"),
	}
}
