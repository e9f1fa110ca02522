package core

import (
	"time"

	"zht/internal/wire"
)

// AdmissionHook is the per-request admission gate an instance
// consults before serving client-facing KV traffic (single ops and
// batch sub-ops). It is the node's one request gate: the transports
// bound nothing, so overload policy — per-tenant quotas and weighted
// shares (internal/tenant.Admission implements it structurally) —
// lives here, and the core stays tenancy-agnostic.
//
// Admit is called with the request's key (which may carry a tenant
// namespace prefix) and payload size in bytes. ok=false sheds the
// request with wire.StatusBusy and retryAfter as the client backoff
// hint; ok=true admits it, and release (never nil then) must be
// called exactly once when the request finishes.
//
// Internal traffic — replication legs, replica reads for quorum
// fan-outs, migration — bypasses the hook: shedding a leg would turn
// an overload verdict into a durability gap.
type AdmissionHook interface {
	Admit(key string, cost int) (release func(), retryAfter time.Duration, ok bool)
}

// admit passes one KV op — a single request or a batch sub-op —
// through the admission hook. A refused op gets StatusBusy with the
// hook's backoff hint. An admitted one may get a release, which the
// caller runs once the op's response (or its whole envelope) is done,
// so the slot is held for the op's full service time. Only the
// per-copy lookups of a quorum read (OpLookup with FlagReplicaRead)
// bypass the hook: they grow no state and serve a read already in
// flight. Replication legs are OpReplicate and never reach this gate,
// so no flag on a KV mutation waves it through.
func (in *Instance) admit(req *wire.Request) (release func(), refused *wire.Response) {
	if req.Op == wire.OpLookup && req.Flags&wire.FlagReplicaRead != 0 {
		return nil, nil
	}
	if in.cfg.Admission == nil {
		return nil, nil
	}
	release, retry, ok := in.cfg.Admission.Admit(req.Key, len(req.Value))
	if !ok {
		r := statusResp(wire.StatusBusy)
		r.RetryAfter = uint64(retry)
		return nil, r
	}
	return release, nil
}
