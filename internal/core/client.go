package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/gossip"
	"zht/internal/hashing"
	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Client is a ZHT client: it holds the complete membership table and
// routes each operation directly to the owning instance (zero hops).
// The table refreshes lazily — only when a server answers
// StatusWrongOwner with a newer table (§III.C "Client Side State") —
// and the client fails over to replicas when it detects a dead
// primary, reporting the failure to a manager (§III.H).
//
// Every op runs through one routing loop (route): a single op is a
// route of one request, a Batch a route of many.
//
// A Client is safe for concurrent use.
type Client struct {
	cfg     Config
	caller  transport.Caller
	hashf   hashing.Func
	breaker *breaker
	metrics clientMetrics

	// table is the client's own routing table, published immutable so
	// operations load it without locking; mu serializes the writers
	// that swap in a new one.
	mu    sync.Mutex
	table atomic.Pointer[ring.Table]
	// unmarked is the last table a server issued while table carries
	// local failure marks on top of it (failLocally), nil otherwise.
	unmarked atomic.Pointer[ring.Table]
	// shared, when non-nil, is a co-located instance whose table
	// this client reads instead of its own copy (§III.C 1:1
	// deployment).
	shared *Instance
	// gossip heals a stale table from piggybacked response epochs
	// (DESIGN.md §10); nil for shared clients (the instance pulls).
	gossip *gossip.Service

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Errors returned by client operations.
var (
	// ErrNotFound reports a lookup/remove/append on an absent key.
	ErrNotFound = errors.New("zht: key not found")
	// ErrExists reports a conditional insert on a present key.
	ErrExists = errors.New("zht: key already exists")
	// ErrCasMismatch reports a failed compare-and-swap.
	ErrCasMismatch = errors.New("zht: cas mismatch")
	// ErrUnavailable reports that the owning instance (and its
	// replicas, if any) could not be reached, that too few copies
	// answered for the operation's consistency level, or that the
	// operation's deadline budget ran out before routing converged.
	ErrUnavailable = errors.New("zht: partition unavailable")
	// ErrCircuitOpen reports that an endpoint's circuit breaker is
	// open: recent consecutive transport failures made the client
	// fail fast instead of retrying into a dead node.
	ErrCircuitOpen = errors.New("zht: circuit open")
)

// routeAttempts bounds the rounds one routed call may run (each
// re-route follows a table refresh, redirect, shed or failover) before
// its unsettled requests give up.
const routeAttempts = 8

// NewClient creates a client from a bootstrap membership table.
func NewClient(cfg Config, table *ring.Table, caller transport.Caller) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:    cfg,
		caller: caller,
		hashf:  cfg.hash(),
		breaker: newBreaker(cfg.Metrics.Counter("zht.client.breaker.trips"),
			cfg.Metrics.Gauge("zht.client.breaker.open")),
		metrics: newClientMetrics(cfg.Metrics),
		// Seed from the process-global (randomly seeded) source:
		// time.Now().UnixNano() collides for clients created in the
		// same nanosecond, which would synchronize their retry
		// jitter and permutation streams.
		rng: rand.New(rand.NewSource(rand.Int63())),
	}
	c.table.Store(table.Clone())
	c.gossip, _ = gossip.New(gossip.Options{
		Epoch:    func() uint64 { return c.issued().Epoch },
		Pull:     c.gossipPull,
		Peers:    func() []string { return alivePeers(c.snapshot(), "") },
		Cooldown: gossipCooldown,
		Metrics:  cfg.Metrics,
	})
	return c, nil
}

// NewLocalClient creates a client that shares the membership table of
// a co-located instance instead of maintaining its own copy — the
// paper's 1:1 deployment optimization (§III.C: "the client could
// share the membership table with a corresponding server on the same
// physical node, to reduce the number of membership tables that need
// to be synchronized"). The client sees the instance's table updates
// immediately; its own lazy refreshes are no-ops against the shared
// view (the instance's table is authoritative).
func NewLocalClient(in *Instance, caller transport.Caller) (*Client, error) {
	cfg := in.cfg
	c, err := NewClient(cfg, in.Table(), caller)
	if err != nil {
		return nil, err
	}
	c.shared = in
	c.gossip = nil // the instance owns staleness healing for shared clients
	return c, nil
}

// NewClientFromSeed creates a client by fetching the membership table
// from any live instance.
func NewClientFromSeed(cfg Config, seedAddr string, caller transport.Caller) (*Client, error) {
	resp, err := caller.Call(seedAddr, &wire.Request{Op: wire.OpMembership})
	if err != nil {
		return nil, fmt.Errorf("zht: fetch membership from %s: %w", seedAddr, err)
	}
	t, err := ring.DecodeTable(resp.Table)
	if err != nil {
		return nil, fmt.Errorf("zht: bad membership table from seed: %w", err)
	}
	// The table is authoritative for the partition count; a client
	// misconfigured with a different n would otherwise be rejected
	// for no reason (routing always uses the table's value).
	cfg.NumPartitions = t.NumPartitions
	return NewClient(cfg, t, caller)
}

// snapshot returns the routing table to use for one operation: the
// co-located instance's published table for shared clients, the
// client's own copy otherwise. The result must not be modified.
func (c *Client) snapshot() *ring.Table {
	if c.shared != nil {
		return c.shared.tableRef()
	}
	return c.table.Load()
}

// Table returns a snapshot of the client's current membership table.
func (c *Client) Table() *ring.Table {
	return c.snapshot().Clone()
}

// doOp runs one KV operation as a route of one request and returns
// its answer's value. It also takes the client-side measurements: one
// ops count per operation and, for one op in metrics.SampleEvery, an
// end-to-end latency observation (per-op-type and aggregate). The
// sampling decision reuses the op count the path already pays for, so
// the untimed ops cost no clock reads; with metrics disabled the whole
// thing degrades to nil checks.
func (c *Client) doOp(op wire.Op, key string, val, aux []byte, flags uint8, cons wire.Consistency) ([]byte, error) {
	n := c.metrics.ops.Inc()
	var start time.Time
	timed := c.metrics.allLat != nil && n%metrics.SampleEvery == 0
	if timed {
		start = time.Now()
	}
	rt := getRoute(1)
	req := rt.reqs[0]
	req.Op, req.Key, req.Value, req.Aux, req.Flags = op, key, val, aux, flags
	req.Consistency = cons
	c.route(rt, c.opDeadline())
	o := rt.outs[0]
	rt.release()
	if timed {
		el := time.Since(start).Nanoseconds()
		c.metrics.allLat.Observe(el)
		c.metrics.opLat[op].Observe(el)
	}
	c.countUnavailable(o.err)
	return o.val, o.err
}

// countUnavailable counts an op that failed with ErrUnavailable.
func (c *Client) countUnavailable(err error) {
	if err != nil && errors.Is(err, ErrUnavailable) {
		c.metrics.unavailable.Inc()
	}
}

// opDeadline is the deadline of an op starting now: OpDeadline away,
// or none.
func (c *Client) opDeadline() time.Time {
	if c.cfg.OpDeadline > 0 {
		return time.Now().Add(c.cfg.OpDeadline)
	}
	return time.Time{}
}

// Insert stores val under key (unconditional) at the deployment's
// default write level.
func (c *Client) Insert(key string, val []byte) error {
	return c.InsertWith(key, val, wire.ConsistencyDefault)
}

// InsertWith is Insert at an explicit write consistency level:
// success means at least Acks(copies) copies hold the write
// (DESIGN.md §12). ConsistencyDefault defers to Config.WriteLevel.
func (c *Client) InsertWith(key string, val []byte, level wire.Consistency) error {
	_, err := c.doOp(wire.OpInsert, key, val, nil, 0, level)
	return err
}

// InsertIfAbsent stores val only when key is absent.
func (c *Client) InsertIfAbsent(key string, val []byte) error {
	_, err := c.doOp(wire.OpInsert, key, val, nil, wire.FlagIfAbsent, wire.ConsistencyDefault)
	return err
}

// Lookup returns the value stored under key, read at the deployment's
// default read level.
func (c *Client) Lookup(key string) ([]byte, error) {
	return c.LookupWith(key, wire.ConsistencyDefault)
}

// LookupWith is Lookup at an explicit read consistency level. One is
// the zero-hop read of the owner's copy; Quorum and All consult the
// owner plus the partition's replicas in parallel and return the copy
// with the newest version stamp, queueing an asynchronous read-repair
// of any stale copy observed (DESIGN.md §12). ConsistencyDefault
// reads at One.
func (c *Client) LookupWith(key string, level wire.Consistency) ([]byte, error) {
	if level == wire.ConsistencyDefault {
		level = wire.ConsistencyOne
	}
	if level > wire.ConsistencyOne && c.cfg.Replicas > 0 {
		return c.quorumLookup(key, level)
	}
	v, err := c.doOp(wire.OpLookup, key, nil, nil, 0, level)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Remove deletes key at the deployment's default write level.
func (c *Client) Remove(key string) error {
	return c.RemoveWith(key, wire.ConsistencyDefault)
}

// RemoveWith is Remove at an explicit write consistency level.
func (c *Client) RemoveWith(key string, level wire.Consistency) error {
	_, err := c.doOp(wire.OpRemove, key, nil, nil, 0, level)
	return err
}

// Append concatenates val to key's value, creating it when absent.
// Appends from concurrent clients interleave without any distributed
// lock (§III.I).
func (c *Client) Append(key string, val []byte) error {
	return c.AppendWith(key, val, wire.ConsistencyDefault)
}

// AppendWith is Append at an explicit write consistency level.
func (c *Client) AppendWith(key string, val []byte, level wire.Consistency) error {
	_, err := c.doOp(wire.OpAppend, key, val, nil, 0, level)
	return err
}

// Cas atomically replaces key's value with newVal when the current
// value equals oldVal; oldVal == nil means "expect absent". On
// mismatch it returns ErrCasMismatch and the observed value.
func (c *Client) Cas(key string, oldVal, newVal []byte) ([]byte, error) {
	return c.CasWith(key, oldVal, newVal, wire.ConsistencyDefault)
}

// CasWith is Cas at an explicit write consistency level (the compare
// itself always runs on the owner — the serialization point; the
// level governs how many copies must hold the winning value).
func (c *Client) CasWith(key string, oldVal, newVal []byte, level wire.Consistency) ([]byte, error) {
	var flags uint8
	if oldVal == nil {
		flags = wire.FlagIfAbsent
	}
	cur, err := c.doOp(wire.OpCas, key, newVal, oldVal, flags, level)
	if errors.Is(err, ErrCasMismatch) {
		return cur, err
	}
	return nil, err
}

// readVote is one copy's answer to a quorum read.
type readVote struct {
	addr  string
	val   []byte
	ver   uint64
	found bool
	ok    bool // the copy answered at all
}

// quorumTally counts a quorum read's answers: the copies that
// answered and the newest FOUND copy among them.
type quorumTally struct {
	acked  int
	winner readVote
}

func (t *quorumTally) add(v readVote) {
	if !v.ok {
		return
	}
	t.acked++
	if v.found && (!t.winner.found || v.ver > t.winner.ver) {
		t.winner = v
	}
}

// quorumLookup coordinates a Quorum/All read without a goroutine per
// copy. It starts a direct replica-read probe to each of the
// partition's replicas, runs the owner's read on this goroutine (a
// route of one, so stale tables and failovers heal as usual), then
// awaits the probes in ring order through the retry engine until
// Acks(copies) copies answered and abandons the rest. Disagreement
// resolves newest-version-wins, and any copy observed older than the
// winner gets an asynchronous read-repair push — a versioned replica
// leg its LWW compare accepts only if still stale. A removed key can
// "resurface" at quorum if a replica still holds the pre-remove value:
// removes are tombstone-free, so an absent copy cannot be
// distinguished from a never-written one; the winner among FOUND
// copies is returned (documented in DESIGN.md §12).
func (c *Client) quorumLookup(key string, level wire.Consistency) ([]byte, error) {
	c.metrics.quorumReads.Inc()
	deadline := c.opDeadline()
	table := c.snapshot()
	p := table.Partition(c.hashf(key))
	owner := table.Instances[table.Owner[p]]
	reps := table.ReplicasOf(p, c.cfg.Replicas)
	// The probes only borrow a route's storage: each is a message of
	// one request to a fixed copy.
	probes := getRoute(len(reps))
	defer probes.release()
	var scratch [3]readVote
	votes := scratch[:0]
	for i, r := range reps {
		req := probes.reqs[i]
		req.Op, req.Key, req.Flags = wire.OpLookup, key, wire.FlagReplicaRead
		probes.msgs = append(probes.msgs, message{addr: r.Addr, reqs: probes.reqs[i : i+1]})
		votes = append(votes, readVote{addr: r.Addr})
	}
	for j := range probes.msgs {
		c.launch(&probes.msgs[j], deadline)
	}

	rt := getRoute(1)
	req := rt.reqs[0]
	req.Op, req.Key, req.Consistency = wire.OpLookup, key, wire.ConsistencyOne
	c.route(rt, deadline)
	o := rt.outs[0]
	rt.release()
	own := readVote{addr: owner.Addr}
	if o.err == nil || errors.Is(o.err, ErrNotFound) {
		own.ok, own.found = true, o.err == nil
		own.val, own.ver = o.val, o.ver
	}

	need := level.Acks(1 + len(votes))
	var t quorumTally
	t.add(own)
	for j := range probes.msgs {
		m, v := &probes.msgs[j], &votes[j]
		switch {
		case m.err != nil:
		case t.acked >= need:
			m.call.Abandon()
		default:
			if rs, err := c.exchange(m, deadline); err == nil {
				if resp := rs[0]; resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound {
					v.ok, v.found = true, resp.Status == wire.StatusOK
					v.val, v.ver = resp.Value, resp.Version
				}
				m.release(rs)
			}
			t.add(*v)
		}
	}
	if t.acked < need {
		err := fmt.Errorf("%w: read quorum not met (%d/%d copies answered)", ErrUnavailable, t.acked, need)
		c.countUnavailable(err)
		return nil, err
	}
	winner := t.winner
	if winner.found && winner.ver > 0 {
		stale := c.repairIfStale(p, key, own, winner)
		for _, v := range votes {
			stale = c.repairIfStale(p, key, v, winner) || stale
		}
		if stale {
			c.metrics.staleReadsRepaired.Inc()
		}
	}
	if !winner.found {
		return nil, ErrNotFound
	}
	return winner.val, nil
}

// repairIfStale queues a read-repair of v's copy when it answered
// older than winner (or without the key), and reports whether it did.
func (c *Client) repairIfStale(p int, key string, v, winner readVote) bool {
	if !v.ok || (v.found && v.ver >= winner.ver) {
		return false
	}
	go c.repairCopy(p, v.addr, key, winner.val, winner.ver)
	return true
}

// repairCopy pushes the quorum-read winner to one stale copy as a
// versioned replica leg: the target's last-writer-wins compare applies
// it only if the copy is still older, so a racing newer write is never
// regressed. The leg is bounded like an operation (OpDeadline) and
// skipped while the copy's breaker is open, so a hung or dead copy
// cannot pile up repair goroutines.
func (c *Client) repairCopy(p int, addr, key string, val []byte, ver uint64) {
	if !c.breaker.allow(addr) {
		return
	}
	req := &wire.Request{
		Op: wire.OpReplicate, Partition: int64(p), Key: key, Value: val,
		Version: ver, Aux: encodeReplicaAux(wire.OpInsert),
	}
	if c.cfg.OpDeadline > 0 {
		req.Budget = uint64(c.cfg.OpDeadline)
	}
	if _, err := c.caller.Call(addr, req); err != nil {
		c.breaker.failure(addr)
	} else {
		c.breaker.success(addr)
	}
}

// Broadcast delivers key/val to every instance via the spanning-tree
// primitive. It returns once the root instance accepted the message;
// interior forwarding is asynchronous.
func (c *Client) Broadcast(key string, val []byte) error {
	table := c.snapshot()
	// Root the tree at the key's owner so repeated broadcasts spread
	// root load across instances.
	origin := table.Owner[table.Partition(c.hashf(key))]
	resp, err := c.caller.Call(table.Instances[origin].Addr, &wire.Request{
		Op: wire.OpBroadcast, Key: key, Value: val, Partition: int64(origin),
	})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("zht: broadcast: %s", resp.Err)
	}
	return nil
}

// statusToErr translates a terminal response status into the
// client's error vocabulary. done=false marks the routing statuses
// (WrongOwner, Migrating, Busy) the caller must react to instead of
// returning.
func statusToErr(op wire.Op, resp *wire.Response) (err error, done bool) {
	switch resp.Status {
	case wire.StatusOK:
		return nil, true
	case wire.StatusNotFound:
		return ErrNotFound, true
	case wire.StatusExists:
		return ErrExists, true
	case wire.StatusCasMismatch:
		return ErrCasMismatch, true
	case wire.StatusError:
		return fmt.Errorf("zht: %s failed: %s", op, resp.Err), true
	case wire.StatusQuorumNotMet:
		// The write's replica set could not reach its level — the
		// partition is unavailable at that level, the same class as a
		// read quorum refusal.
		return fmt.Errorf("%w: %s refused: %s", ErrUnavailable, op, resp.Err), true
	case wire.StatusWrongOwner, wire.StatusMigrating, wire.StatusBusy:
		return nil, false
	default:
		return fmt.Errorf("zht: unexpected status %s", resp.Status), true
	}
}

// exchange is the client's one retry engine: it delivers message m —
// awaiting it when launch already started it — and returns its answers
// in request order. An unreachable destination is retried with capped,
// full-jitter exponential backoff (§III.H: failures are tagged lazily,
// "using exponential back off"; the jitter keeps concurrent clients
// from synchronizing retry storms against a recovering node). Every
// attempt carries the operation's remaining budget in
// wire.Request.Budget, and the endpoint's circuit breaker fails the
// message fast while open. A shed message — one whose every answer is
// StatusBusy, as a shed envelope's are — is retried too, waiting at
// least the largest RetryAfter hint, without counting toward the
// breaker (a shedding server is alive).
func (c *Client) exchange(m *message, deadline time.Time) ([]*wire.Response, error) {
	if m.err != nil {
		return nil, m.err
	}
	var lastErr error
	for i := 0; ; i++ {
		late := m.started && expired(deadline)
		if !m.started {
			if err := c.preflight(m, deadline, lastErr); err != nil {
				return nil, err
			}
		}
		rs, err := m.await(c.caller)
		if err == nil {
			c.breaker.success(m.addr)
			c.observeEpoch(m.addr, maxRespEpoch(rs))
			hint, shed := shedHint(rs)
			if !shed {
				return rs, nil
			}
			c.metrics.busyRetries.Inc()
			if i >= c.cfg.opRetries {
				return rs, nil
			}
			m.release(rs)
			c.sleepBounded(max(c.backoff(i), hint), deadline)
			continue
		}
		c.strike(m.addr, err, late)
		lastErr = err
		if i >= c.cfg.opRetries {
			return nil, lastErr
		}
		c.metrics.retries.Inc()
		c.sleepBounded(c.backoff(i), deadline)
	}
}

// shedHint reports whether every answer is StatusBusy and, if so, the
// largest RetryAfter among them: sub-responses can carry distinct
// hints (per-tenant admission sheds each slot with its own bucket's
// wait), and retrying before the largest would hit a still-closed gate.
func shedHint(rs []*wire.Response) (time.Duration, bool) {
	var hint time.Duration
	for _, r := range rs {
		if r.Status != wire.StatusBusy {
			return 0, false
		}
		hint = max(hint, time.Duration(r.RetryAfter))
	}
	return hint, len(rs) > 0
}

// strike charges addr's breaker with a failed attempt — except a
// timeout of a started attempt first awaited after the deadline had
// passed (late). Fan-outs await their started calls in turn under one
// deadline, so such a call had no time of its own to answer in once a
// slower one awaited before it used the deadline up.
func (c *Client) strike(addr string, err error, late bool) {
	if late && errors.Is(err, transport.ErrTimeout) {
		return
	}
	c.breaker.failure(addr)
}

// preflight clears one attempt of m to go out: it fails once the
// deadline has passed (with the previous attempt's error, if any) or
// while the destination's breaker is open, and otherwise stamps the
// remaining budget (0 without a deadline) on every request of m.
func (c *Client) preflight(m *message, deadline time.Time, lastErr error) error {
	var budget uint64
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			if lastErr == nil {
				lastErr = transport.ErrTimeout
			}
			return lastErr
		}
		budget = uint64(rem)
	}
	if !c.breaker.allow(m.addr) {
		c.metrics.fastfails.Inc()
		return fmt.Errorf("%w: %s", ErrCircuitOpen, m.addr)
	}
	for _, r := range m.reqs {
		r.Budget = budget
	}
	return nil
}

// backoff returns the full-jitter delay for retry attempt i: uniform
// in (0, min(retryMax, RetryBase<<i)].
func (c *Client) backoff(i int) time.Duration {
	if i > 20 {
		i = 20 // avoid shifting into the sign bit
	}
	d := c.cfg.RetryBase << uint(i)
	if d <= 0 || d > c.cfg.retryMax {
		d = c.cfg.retryMax
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// sleepBounded sleeps for d, clamped so it never crosses deadline.
func (c *Client) sleepBounded(d time.Duration, deadline time.Time) {
	if !deadline.IsZero() {
		if rem := time.Until(deadline); d > rem {
			d = rem
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// expired reports whether a non-zero deadline has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// reportFailure tells a random alive manager that accused is down and
// adopts the table the manager answers with. As a last resort (every
// other instance unreachable — e.g. a single-node deployment) it
// fails the instance in the local table only. The walk over managers
// shares the calling operation's deadline budget.
func (c *Client) reportFailure(table *ring.Table, accused ring.InstanceID, deadline time.Time) error {
	// Mark locally first so subsequent attempts avoid the dead node
	// even before the manager's verdict lands.
	c.failLocally(accused)

	idxs := c.rngPerm(len(table.Instances))
	for _, i := range idxs {
		if expired(deadline) {
			break
		}
		peer := table.Instances[i]
		if peer.ID == accused || table.Status[i] != ring.Alive {
			continue
		}
		req := &wire.Request{Op: wire.OpReport, Key: string(accused)}
		if !deadline.IsZero() {
			req.Budget = uint64(time.Until(deadline))
		}
		resp, err := c.caller.Call(peer.Addr, req)
		if err != nil {
			continue
		}
		if resp.Status == wire.StatusOK {
			if t, terr := ring.DecodeTable(resp.Table); terr == nil {
				c.adoptTable(t)
			}
			return nil
		}
		if resp.Status == wire.StatusError && resp.Err == "core: accused instance is alive" {
			// False alarm (transient glitch): undo the local mark.
			c.unmark()
			return nil
		}
	}
	if table.AliveCount() <= 1 {
		return fmt.Errorf("no manager reachable for failure report")
	}
	return nil // local mark stands; gossip brings the verdict eventually
}

// failLocally marks an instance failed in the client's table and fails
// its partitions over to first replicas, mirroring what the manager
// will announce, so the next round avoids it before the verdict lands.
// The marked table's epoch is forged — one past the table it marks,
// the number the servers' next table gets too — so the marked table is
// kept in unmarked: server tables are measured against its epoch
// (adoptTable), and a rejected report returns to it (unmark).
func (c *Client) failLocally(id ring.InstanceID) {
	if c.shared != nil {
		// The shared instance learns from the manager's answer, which
		// reportFailure hands it synchronously (adoptTable).
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.table.Load()
	d, err := cur.PlanFailure(id, max(c.cfg.Replicas, 1))
	if err != nil {
		return
	}
	nt, err := cur.Apply(d)
	if err != nil {
		return
	}
	if c.unmarked.Load() == nil {
		c.unmarked.Store(cur)
	}
	c.table.Store(nt)
}

// unmark drops the local failure marks, returning to the last table a
// server issued.
func (c *Client) unmark() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u := c.unmarked.Swap(nil); u != nil {
		c.table.Store(u)
	}
}

// issued returns the last table a server issued: the routing table, or
// the one under its local failure marks.
func (c *Client) issued() *ring.Table {
	if u := c.unmarked.Load(); u != nil {
		return u
	}
	return c.snapshot()
}

// adoptTable replaces the local table, and any local failure marks on
// it, when t orders after the last table a server issued
// (ring.Table.After); shared clients forward it to their co-located
// instance instead, which is the authoritative holder.
func (c *Client) adoptTable(t *ring.Table) {
	if c.shared != nil {
		c.shared.adoptTableIfNewer(t)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptLocked(t)
}

// adoptLocked is adoptTable for a standalone client holding c.mu.
func (c *Client) adoptLocked(t *ring.Table) {
	if t.After(c.issued()) {
		c.table.Store(t)
		c.unmarked.Store(nil)
	}
}

// RefreshMembership asks every alive instance for its table and adopts
// the newest (useful after out-of-band membership changes). Asking one
// is not enough: an instance whose copies a change did not move hears
// of it only through gossip (DESIGN.md §10).
func (c *Client) RefreshMembership() error {
	table := c.snapshot()
	var newest *ring.Table
	for i, peer := range table.Instances {
		if table.Status[i] == ring.Alive {
			resp, err := c.caller.Call(peer.Addr, &wire.Request{Op: wire.OpMembership})
			if err == nil && resp.Status == wire.StatusOK {
				newest = newerTable(newest, tableOf(resp))
			}
		}
	}
	if newest == nil {
		return errors.New("zht: no instance reachable for membership refresh")
	}
	c.adoptTable(newest)
	return nil
}

func (c *Client) rngPerm(n int) []int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Perm(n)
}
