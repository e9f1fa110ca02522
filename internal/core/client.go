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
	// shared, when non-nil, is a co-located instance whose table
	// this client reads instead of its own copy (§III.C 1:1
	// deployment).
	shared *Instance
	// gossip heals a stale table from piggybacked response epochs
	// (DESIGN.md §10); nil for shared clients (the instance pulls) and
	// when Config.GossipCooldown is negative.
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
	// ErrTooLarge reports a key or value rejected by the deployment's
	// size limits (Config.MaxKeyLen/MaxValueLen). Terminal: the same
	// payload can never succeed on retry.
	ErrTooLarge = errors.New("zht: key or value too large")
)

// routeAttempts bounds how many times one operation may re-route
// (table refresh, redirect, failover) before giving up.
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
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown,
			cfg.Metrics.Counter("zht.client.breaker.trips"),
			cfg.Metrics.Gauge("zht.client.breaker.open")),
		metrics: newClientMetrics(cfg.Metrics),
		// Seed from the process-global (randomly seeded) source:
		// time.Now().UnixNano() collides for clients created in the
		// same nanosecond, which would synchronize their retry
		// jitter and permutation streams.
		rng: rand.New(rand.NewSource(rand.Int63())),
	}
	c.table.Store(table.Clone())
	if cfg.GossipCooldown >= 0 {
		c.gossip, _ = gossip.New(gossip.Options{
			Epoch:    func() uint64 { return c.snapshot().Epoch },
			Pull:     c.gossipPull,
			Peers:    c.gossipPeers,
			Cooldown: cfg.GossipCooldown,
			Metrics:  cfg.Metrics,
		})
	}
	return c, nil
}

// NewLocalClient creates a client that shares the membership table of
// a co-located instance instead of maintaining its own copy — the
// paper's 1:1 deployment optimization (§III.C: "the client could
// share the membership table with a corresponding server on the same
// physical node, to reduce the number of membership tables that need
// to be synchronized"). The client sees the instance's table updates
// immediately; its own lazy refreshes are no-ops against the shared
// view (the instance's broadcasts are authoritative).
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

// doOp runs one KV operation through a pooled request, releasing the
// request once routing settles. The response stays with the caller
// (its Value may be handed to the application); callers that do not
// need it release it with wire.PutResponse.
func (c *Client) doOp(op wire.Op, key string, val, aux []byte, flags uint8, cons wire.Consistency) (*wire.Response, error) {
	req := wire.GetRequest()
	req.Op, req.Key, req.Value, req.Aux, req.Flags = op, key, val, aux, flags
	req.Consistency = cons
	resp, err := c.do(req)
	wire.PutRequest(req)
	return resp, err
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
	resp, err := c.doOp(wire.OpInsert, key, val, nil, 0, level)
	wire.PutResponse(resp)
	return err
}

// InsertIfAbsent stores val only when key is absent.
func (c *Client) InsertIfAbsent(key string, val []byte) error {
	resp, err := c.doOp(wire.OpInsert, key, val, nil, wire.FlagIfAbsent, wire.ConsistencyDefault)
	wire.PutResponse(resp)
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
// defers to Config.ReadLevel.
func (c *Client) LookupWith(key string, level wire.Consistency) ([]byte, error) {
	if level == wire.ConsistencyDefault {
		level = c.cfg.ReadLevel
	}
	if level > wire.ConsistencyOne && c.cfg.Replicas > 0 {
		return c.quorumLookup(key, level)
	}
	resp, err := c.doOp(wire.OpLookup, key, nil, nil, 0, level)
	if err != nil {
		wire.PutResponse(resp)
		return nil, err
	}
	v := resp.Value
	wire.PutResponse(resp)
	return v, nil
}

// Remove deletes key at the deployment's default write level.
func (c *Client) Remove(key string) error {
	return c.RemoveWith(key, wire.ConsistencyDefault)
}

// RemoveWith is Remove at an explicit write consistency level.
func (c *Client) RemoveWith(key string, level wire.Consistency) error {
	resp, err := c.doOp(wire.OpRemove, key, nil, nil, 0, level)
	wire.PutResponse(resp)
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
	resp, err := c.doOp(wire.OpAppend, key, val, nil, 0, level)
	wire.PutResponse(resp)
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
	resp, err := c.doOp(wire.OpCas, key, newVal, oldVal, flags, level)
	if err != nil {
		if errors.Is(err, ErrCasMismatch) && resp != nil {
			cur := resp.Value
			wire.PutResponse(resp)
			return cur, err
		}
		wire.PutResponse(resp)
		return nil, err
	}
	wire.PutResponse(resp)
	return nil, nil
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

// quorumProbe is one replica's part in a quorum read: its replica-read
// request and the call carrying it.
type quorumProbe struct {
	req  *wire.Request
	call transport.Pending
	err  error // the probe never went out (breaker open, deadline gone)
	vote readVote
}

// quorumLookup coordinates a Quorum/All read without a goroutine per
// copy. It starts a direct replica-read probe to each of the
// partition's replicas, runs the owner's read on this goroutine (a full
// routed read, so stale tables and failovers heal as usual), then
// awaits the probes in ring order until Acks(copies) copies answered
// and abandons the rest; a probe that failed or was shed continues
// through callWithBackoff. Disagreement resolves newest-version-wins,
// and any copy observed older than the winner gets an asynchronous
// read-repair push — a versioned replica leg its LWW compare accepts
// only if still stale. A removed key can "resurface" at quorum if a
// replica still holds the pre-remove value: removes are
// tombstone-free, so an absent copy cannot be distinguished from a
// never-written one; the winner among FOUND copies is returned
// (documented in DESIGN.md §12).
func (c *Client) quorumLookup(key string, level wire.Consistency) ([]byte, error) {
	c.metrics.quorumReads.Inc()
	var deadline time.Time
	if c.cfg.OpDeadline > 0 {
		deadline = time.Now().Add(c.cfg.OpDeadline)
	}
	table := c.snapshot()
	p := table.Partition(c.hashf(key))
	owner := table.Instances[table.Owner[p]]
	var scratch [3]quorumProbe
	probes := scratch[:0]
	for _, r := range table.ReplicasOf(p, c.cfg.Replicas) {
		if r.ID != owner.ID {
			probes = append(probes, quorumProbe{vote: readVote{addr: r.Addr}})
		}
	}
	for i := range probes {
		pr := &probes[i]
		pr.req = wire.GetRequest()
		pr.req.Op, pr.req.Key, pr.req.Flags = wire.OpLookup, key, wire.FlagReplicaRead
		if pr.req.Budget, pr.err = c.preflight(pr.vote.addr, deadline, nil); pr.err == nil {
			pr.call = transport.Start(c.caller, pr.vote.addr, pr.req)
		}
	}

	req := wire.GetRequest()
	req.Op, req.Key, req.Consistency = wire.OpLookup, key, wire.ConsistencyOne
	resp, err := c.doRoutedDeadline(req, deadline)
	wire.PutRequest(req)
	own := readVote{addr: owner.Addr}
	if err == nil || errors.Is(err, ErrNotFound) {
		own.ok, own.found = true, err == nil
		if resp != nil {
			own.val, own.ver = resp.Value, resp.Version
		}
	}
	wire.PutResponse(resp)

	need := level.Acks(1 + len(probes))
	var t quorumTally
	t.add(own)
	for i := range probes {
		pr := &probes[i]
		switch {
		case pr.err != nil:
		case t.acked >= need:
			pr.call.Abandon()
		default:
			resp, err := c.callWithBackoff(pr.vote.addr, pr.req, deadline, &pr.call)
			if err == nil && (resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound) {
				pr.vote.ok = true
				pr.vote.found = resp.Status == wire.StatusOK
				pr.vote.val, pr.vote.ver = resp.Value, resp.Version
			}
			wire.PutResponse(resp)
			t.add(pr.vote)
		}
		wire.PutRequest(pr.req)
	}
	if t.acked < need {
		return nil, fmt.Errorf("%w: read quorum not met (%d/%d copies answered)", ErrUnavailable, t.acked, need)
	}
	winner := t.winner
	if winner.found && winner.ver > 0 {
		stale := c.repairIfStale(p, key, own, winner)
		for i := range probes {
			stale = c.repairIfStale(p, key, probes[i].vote, winner) || stale
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
		Version: ver, Flags: wire.FlagNoReplicate,
		Aux: encodeReplicaAux(wire.OpInsert, nil),
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
	case wire.StatusTooLarge:
		return ErrTooLarge, true
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

// do wraps doRouted with the client-side measurements: one ops count
// per operation and, for one op in metrics.SampleEvery, an end-to-end
// latency observation (per-op-type and aggregate). The sampling
// decision reuses the op count the path already pays for, so the
// untimed ops cost no clock reads; with metrics disabled the whole
// thing degrades to nil checks.
func (c *Client) do(req *wire.Request) (*wire.Response, error) {
	n := c.metrics.ops.Inc()
	var start time.Time
	timed := c.metrics.allLat != nil && n%metrics.SampleEvery == 0
	if timed {
		start = time.Now()
	}
	resp, err := c.doRouted(req)
	if timed {
		el := time.Since(start).Nanoseconds()
		c.metrics.allLat.Observe(el)
		c.metrics.opLat[req.Op].Observe(el)
	}
	if errors.Is(err, ErrUnavailable) {
		c.metrics.unavailable.Inc()
	}
	return resp, err
}

// doRouted routes one request: pick the owner from the local table,
// call it, and react to routing feedback (stale table, migration
// redirect, server overload, owner failure) until the operation
// resolves. The whole loop — transport retries, redirects, failovers,
// backoff sleeps — shares one OpDeadline budget, propagated to every
// transport call via wire.Request.Budget, so an operation resolves
// or fails with ErrUnavailable within its deadline instead of
// compounding per-layer timeouts.
func (c *Client) doRouted(req *wire.Request) (*wire.Response, error) {
	var deadline time.Time
	if c.cfg.OpDeadline > 0 {
		deadline = time.Now().Add(c.cfg.OpDeadline)
	}
	return c.doRoutedDeadline(req, deadline)
}

// doRoutedDeadline is doRouted under an externally supplied deadline,
// so a batch's stragglers can re-route individually while still
// sharing the batch's overall budget.
func (c *Client) doRoutedDeadline(req *wire.Request, deadline time.Time) (*wire.Response, error) {
	h := c.hashf(req.Key)
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if expired(deadline) {
			return nil, fmt.Errorf("%w: op deadline exceeded: %v", ErrUnavailable, lastErr)
		}
		table := c.snapshot()
		p := table.Partition(h)
		idx := table.Owner[p]
		target := table.Instances[idx]
		targetAlive := table.Status[idx] == ring.Alive

		if !targetAlive {
			// Owner known dead: address the first alive replica — the
			// same election the serving side applies (firstAliveReplica),
			// so a replica that has itself failed or departed is skipped
			// instead of dialed.
			reps := table.ReplicasOf(p, maxInt(c.cfg.Replicas, 1))
			found := false
			for _, r := range reps {
				if i := table.IndexOf(r.ID); i >= 0 && table.Status[i] == ring.Alive {
					target, found = r, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: no alive replica for partition %d", ErrUnavailable, p)
			}
		}

		req.Epoch = table.Epoch
		resp, err := c.callWithBackoff(target.Addr, req, deadline, nil)
		if err != nil {
			lastErr = err
			if expired(deadline) {
				return nil, fmt.Errorf("%w: op deadline exceeded: %v", ErrUnavailable, err)
			}
			// Exhausted retries: declare the instance failed, tell a
			// random manager, and adopt the resulting table.
			if rerr := c.reportFailure(table, target.ID, deadline); rerr != nil {
				return nil, fmt.Errorf("%w: %s unreachable and failover failed: %v", ErrUnavailable, target.Addr, rerr)
			}
			continue
		}
		if err, done := statusToErr(req.Op, resp); done {
			return resp, err
		}
		switch resp.Status {
		case wire.StatusBusy:
			// The owner shed us; callWithBackoff already slept
			// through its retry budget, so just re-route (the table
			// may even have changed) until the deadline runs out.
			lastErr = fmt.Errorf("zht: %s overloaded", target.Addr)
			c.sleepBounded(c.busyDelay(resp, attempt), deadline)
			continue
		case wire.StatusWrongOwner:
			c.metrics.wrongOwner.Inc()
			if t, err := ring.DecodeTable(resp.Table); err == nil {
				c.adoptTable(t)
			}
			lastErr = fmt.Errorf("zht: wrong owner for %q (epoch %d)", req.Key, table.Epoch)
			continue
		case wire.StatusMigrating:
			if resp.Redirect == "" {
				lastErr = errors.New("zht: partition migrating")
				continue
			}
			// Follow the redirect directly; membership will catch up
			// lazily.
			r2, err := c.callWithBackoff(resp.Redirect, req, deadline, nil)
			if err != nil {
				lastErr = err
				continue
			}
			if err, done := statusToErr(req.Op, r2); done {
				return r2, err
			}
			lastErr = fmt.Errorf("zht: redirect to %s answered %s", resp.Redirect, r2.Status)
			continue
		}
	}
	return nil, fmt.Errorf("%w: routing did not converge: %v", ErrUnavailable, lastErr)
}

// callWithBackoff retries an unreachable destination with capped,
// full-jitter exponential backoff (§III.H: failures are tagged
// lazily, "using exponential back off"; the jitter keeps concurrent
// clients from synchronizing retry storms against a recovering
// node). Every attempt carries the operation's remaining budget in
// wire.Request.Budget, and the endpoint's circuit breaker fails the
// call fast while open. StatusBusy responses are retried here too —
// waiting at least the server's RetryAfter hint — without counting
// toward the breaker (a shedding server is alive). When started is
// non-nil the first attempt is already in flight (it passed preflight
// when it was started) and is awaited instead of sent.
func (c *Client) callWithBackoff(addr string, req *wire.Request, deadline time.Time, started *transport.Pending) (*wire.Response, error) {
	var lastErr error
	for i := 0; ; i++ {
		var resp *wire.Response
		var err error
		late := false
		if started != nil {
			late = expired(deadline)
			resp, err = started.Wait()
			started = nil
		} else {
			if req.Budget, err = c.preflight(addr, deadline, lastErr); err != nil {
				return nil, err
			}
			resp, err = c.caller.Call(addr, req)
		}
		if err == nil {
			c.breaker.success(addr)
			c.observeEpoch(addr, resp.Epoch)
			if resp.Status == wire.StatusBusy {
				c.metrics.busyRetries.Inc()
			}
			if resp.Status != wire.StatusBusy || i >= c.cfg.OpRetries {
				return resp, nil
			}
			d := c.backoff(i)
			if hint := time.Duration(resp.RetryAfter); hint > d {
				d = hint
			}
			c.sleepBounded(d, deadline)
			continue
		}
		c.strike(addr, err, late)
		lastErr = err
		if i >= c.cfg.OpRetries {
			return nil, lastErr
		}
		c.metrics.retries.Inc()
		c.sleepBounded(c.backoff(i), deadline)
	}
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

// preflight clears one attempt at addr to go out: it fails once the
// deadline has passed (with the previous attempt's error, if any) or
// while addr's breaker is open, and otherwise returns the remaining
// budget the attempt's requests carry (0 without a deadline).
func (c *Client) preflight(addr string, deadline time.Time, lastErr error) (uint64, error) {
	var budget uint64
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			if lastErr == nil {
				lastErr = transport.ErrTimeout
			}
			return 0, lastErr
		}
		budget = uint64(rem)
	}
	if !c.breaker.allow(addr) {
		c.metrics.fastfails.Inc()
		return 0, fmt.Errorf("%w: %s", ErrCircuitOpen, addr)
	}
	return budget, nil
}

// backoff returns the full-jitter delay for retry attempt i: uniform
// in (0, min(RetryMax, RetryBase<<i)].
func (c *Client) backoff(i int) time.Duration {
	if i > 20 {
		i = 20 // avoid shifting into the sign bit
	}
	d := c.cfg.RetryBase << uint(i)
	if d <= 0 || d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// busyDelay is the wait before re-routing after an exhausted Busy
// exchange: the server's hint when present, otherwise one jittered
// backoff step.
func (c *Client) busyDelay(resp *wire.Response, attempt int) time.Duration {
	if hint := time.Duration(resp.RetryAfter); hint > 0 {
		return hint
	}
	return c.backoff(attempt)
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
	// even before the manager broadcast lands.
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
			c.reviveLocally(accused)
			return nil
		}
	}
	if table.AliveCount() <= 1 {
		return fmt.Errorf("no manager reachable for failure report")
	}
	return nil // local mark stands; broadcast will arrive eventually
}

// failLocally marks an instance failed in the client's table and
// fails its partitions over to first replicas, mirroring what the
// manager will broadcast.
func (c *Client) failLocally(id ring.InstanceID) {
	if c.shared != nil {
		// The shared instance learns through the manager broadcast
		// that reportFailure triggers synchronously.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.table.Load()
	d, err := cur.PlanFailure(id, maxInt(c.cfg.Replicas, 1))
	if err != nil {
		return
	}
	if nt, err := cur.Apply(d); err == nil {
		c.table.Store(nt)
	}
}

func (c *Client) reviveLocally(id ring.InstanceID) {
	if c.shared != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.table.Load()
	idx := cur.IndexOf(id)
	if idx >= 0 {
		// The local table is a published (shared-immutability)
		// snapshot; mutate a clone.
		nt := cur.Clone()
		nt.Status[idx] = ring.Alive
		c.table.Store(nt)
	}
}

// adoptTable replaces the local table when t is newer; shared clients
// forward it to their co-located instance instead, which is the
// authoritative holder.
func (c *Client) adoptTable(t *ring.Table) {
	if c.shared != nil {
		if t.Epoch > c.shared.Epoch() {
			c.shared.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(t)})
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Epoch > c.table.Load().Epoch {
		c.table.Store(t)
	}
}

// RefreshMembership pulls the current table from a random alive
// instance (useful after out-of-band membership changes).
func (c *Client) RefreshMembership() error {
	table := c.snapshot()
	for _, i := range c.rngPerm(len(table.Instances)) {
		if table.Status[i] != ring.Alive {
			continue
		}
		resp, err := c.caller.Call(table.Instances[i].Addr, &wire.Request{Op: wire.OpMembership})
		if err != nil || resp.Status != wire.StatusOK {
			continue
		}
		if t, err := ring.DecodeTable(resp.Table); err == nil {
			c.adoptTable(t)
			return nil
		}
	}
	return errors.New("zht: no instance reachable for membership refresh")
}

func (c *Client) rngPerm(n int) []int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Perm(n)
}
