package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/gossip"
	"zht/internal/hashing"
	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// migrationTimeout bounds how long a partition stays locked waiting
// for the membership delta that completes its migration; past it the
// migration is considered failed and queued requests get errors
// (paper §III.C: on migration failure, discard queued requests and
// report errors, rolling back to the consistent state).
const migrationTimeout = 10 * time.Second

// A tombstone must outlast the longest a streamed chunk collected
// before a remove can wait before it lands, a migration, with room to
// spare: this constant fails to compile if novoht.RemoveGrace falls
// below twice migrationTimeout.
const _ = uint64(novoht.RemoveGrace - 2*migrationTimeout)

// Instance is one ZHT server process: it owns a set of partitions,
// holds replica stores for its ring neighbours, answers client
// requests, and plays the manager role in membership changes.
type Instance struct {
	cfg   Config
	self  ring.Instance
	hashf hashing.Func
	// clock is the floor of the version stamps the instance's owner
	// writes carry for last-writer-wins resolution across replicas
	// (DESIGN.md §12); it observes every stamp above it, stored here or
	// installed from elsewhere.
	clock *hlc

	// table is the published membership table. Published tables are
	// immutable, so readers load it without locking; mu serializes the
	// writers (applyDelta, adoptTableIfNewer), which swap in a new one.
	mu    sync.Mutex
	table atomic.Pointer[ring.Table]
	// deltaLog retains the trailing membership deltas this instance
	// applied, serving peers' gossip catch-up pulls (wire.OpDeltaPull).
	deltaLog *ring.DeltaLog
	// gossip pulls missing membership state when piggybacked epochs
	// reveal staleness.
	gossip *gossip.Service

	// log holds every partition store of the instance and, with a
	// DataDir, their one write-ahead log file, DataDir/<id>.log.
	log *novoht.Log
	// parts holds partition p's state at index p (partition).
	parts []partition

	bmu   sync.Mutex // guards bcast
	bcast map[string][]byte

	caller  transport.Caller
	met     instanceMetrics
	async   asyncGroup
	closed  chan struct{}
	closeMu sync.Mutex

	// legs carries every replica leg outside a synchronous round, async
	// legs and the hinted-handoff backlog (DESIGN.md §9), in one FIFO per
	// destination, and is the one record of a down replica: sync rounds
	// hand a failing destination's legs to its FIFO (syncEnvelope). A
	// write leg overtaking a newer one would be refused by its stamp
	// anyway; the order guards a remove overtaking an older write on a
	// copy that lacks the key, which a backlog held past the remove
	// tombstone's grace (novoht.RemoveGrace) would otherwise bring back.
	legs *repair.LegQueue
	// loopWG tracks the anti-entropy loop; Close waits for it after
	// closing `closed` so no repair work races store shutdown.
	loopWG sync.WaitGroup
}

// asyncGroup runs and counts the instance's asynchronous work —
// broadcast forwards and replica rebuilds — for Drain. Unlike a
// sync.WaitGroup it may grow from zero while a wait is in progress,
// which gossip or a broadcast can make happen at any time: wait
// returns once the count has reached zero.
type asyncGroup struct {
	mu   sync.Mutex
	n    int
	idle sync.Cond // L is &mu; broadcast when n drops to zero
}

// goAsync runs f on a goroutine of its own, counted until it returns.
func (g *asyncGroup) goAsync(f func()) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	go func() {
		defer func() {
			g.mu.Lock()
			if g.n--; g.n == 0 {
				g.idle.Broadcast()
			}
			g.mu.Unlock()
		}()
		f()
	}()
}

// wait blocks until no counted work is running.
func (g *asyncGroup) wait() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n > 0 {
		g.idle.Wait()
	}
}

// partState is an open outgoing move of a partition: it exists from
// beginMigration until completeMigration, which closes done for a
// commit and a rollback alike. Requests that meet it wait on done and
// then pass the gate again.
type partState struct {
	done chan struct{}
}

// partition is one partition's state on this instance. The hot path
// reads store and mig with one atomic load each and enters and exits
// inflight once; the struct is padded to one 64-byte cache line, so no
// two partitions' in-flight counts share one.
type partition struct {
	id int // its index in Instance.parts
	// store is the partition's store once created: at boot when the log
	// replayed some of it, on demand otherwise (open). It is never
	// removed.
	store atomic.Pointer[novoht.Store]
	// mig is the open outgoing move, nil while the partition is not
	// being given away.
	mig atomic.Pointer[partState]
	// inflight counts the envelopes past the gate still applying or
	// replicating ops on the partition (lockBatch); lockForMove drains it.
	inflight atomic.Int32
	_        [36]byte
}

// NewInstance creates an instance. self must already appear in table.
// caller is the transport the instance uses for server-to-server
// communication (replication, migration, membership announces).
func NewInstance(cfg Config, self ring.Instance, table *ring.Table, caller transport.Caller) (*Instance, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if table.IndexOf(self.ID) < 0 {
		return nil, fmt.Errorf("core: instance %q not in membership table", self.ID)
	}
	in := &Instance{
		cfg:      cfg,
		self:     self,
		hashf:    cfg.hash(),
		clock:    newHLC(self.ID),
		deltaLog: ring.NewDeltaLog(0),
		parts:    make([]partition, table.NumPartitions),
		bcast:    make(map[string][]byte),
		met:      newInstanceMetrics(cfg.Metrics),
		closed:   make(chan struct{}),
	}
	for p := range in.parts {
		in.parts[p].id = p
	}
	// Every server-to-server call flows through the epoch piggyback
	// wrapper: outgoing requests carry our epoch, incoming responses
	// feed the gossip staleness detector.
	in.caller = &epochCaller{inner: caller, in: in}
	in.async.idle.L = &in.async.mu
	in.table.Store(table.Clone())
	if err := in.openLog(); err != nil {
		return nil, err
	}
	in.met.epoch.Set(int64(table.Epoch))
	in.gossip, _ = gossip.New(gossip.Options{
		Epoch:    in.Epoch,
		Pull:     in.gossipPull,
		Peers:    func() []string { return alivePeers(in.tableRef(), in.self.ID) },
		Cooldown: gossipCooldown,
		Metrics:  cfg.Metrics,
	})
	in.legs = repair.NewLegQueue(repair.LegQueueOptions{
		Cap:      cfg.HandoffCap,
		Base:     cfg.RetryBase,
		Max:      max(cfg.retryMax, time.Second),
		Send:     in.sendLeg,
		Queued:   in.met.handoffQueued,
		Replayed: in.met.handoffReplayed,
		Dropped:  in.met.handoffDropped,
		Failing:  in.met.handoffFailing,
	})
	if cfg.AntiEntropy > 0 {
		in.loopWG.Add(1)
		go in.antiEntropyLoop()
	}
	return in, nil
}

// ID returns the instance's ring UUID.
func (in *Instance) ID() ring.InstanceID { return in.self.ID }

// Addr returns the instance's transport address.
func (in *Instance) Addr() string { return in.self.Addr }

// Table returns a snapshot of the instance's membership table.
func (in *Instance) Table() *ring.Table {
	return in.tableRef().Clone()
}

// tableRef returns the current published table without cloning.
// Published tables are immutable; callers must not modify it.
func (in *Instance) tableRef() *ring.Table {
	return in.table.Load()
}

// Epoch returns the instance's current membership epoch.
func (in *Instance) Epoch() uint64 {
	return in.tableRef().Epoch
}

// openLog opens the instance's log and replays it before the instance
// serves anything: every partition the log holds gets its store, and
// the clock observes every replayed stamp, so a restarted node stamps
// its next write above them. A key's partition is fixed for the life
// of a DataDir, so replay routes each record by hashing its key.
func (in *Instance) openLog() error {
	opts := novoht.Options{Durability: in.cfg.Durability, Metrics: in.cfg.Metrics}
	if in.cfg.DataDir != "" && in.cfg.Durability != storage.DurabilityNone {
		opts.Path = filepath.Join(in.cfg.DataDir, string(in.self.ID)+".log")
	}
	// The stores maintain their own repair digests (built during log
	// replay on open), so primary applies, replica applies, and
	// migration imports all keep them current.
	l, err := novoht.OpenLog(opts, in.partitionOf)
	if err != nil {
		return err
	}
	in.log = l
	for _, p := range l.IDs() {
		in.parts[p].store.Store(l.Store(p))
	}
	in.clock.Observe(l.MaxVersion())
	if err := in.importPartitionLogs(opts.Path); err != nil {
		l.Close()
		return err
	}
	return nil
}

// importPartitionLogs moves a DataDir written with one log per
// partition (<id>-pNNNNNN.log) into the instance's log at path: it
// replays each old file, installs every pair through install, which
// keeps its stamp and advances the clock, commits each file's pairs
// once, syncs the log, and only then unlinks the old files. A crash
// before the unlink repeats the import, which installs nothing new:
// every pair is already held at its stamp.
func (in *Instance) importPartitionLogs(path string) error {
	if path == "" {
		return nil
	}
	ents, err := os.ReadDir(in.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("core: read data dir: %w", err)
	}
	var old []string
	prefix := string(in.self.ID) + "-p"
	for _, e := range ents {
		name := e.Name()
		if rest, ok := strings.CutPrefix(name, prefix); ok && len(rest) == len("000000.log") &&
			strings.HasSuffix(rest, ".log") && strings.Trim(rest[:6], "0123456789") == "" {
			old = append(old, filepath.Join(in.cfg.DataDir, name))
		}
	}
	for _, name := range old {
		src, err := novoht.Open(novoht.Options{Path: name, CompactEvery: -1})
		if err != nil {
			return fmt.Errorf("core: import %s: %w", name, err)
		}
		err = src.ForEachV(func(key string, val []byte, ver uint64) error {
			_, err := in.install(&in.parts[in.partitionOf(key)], key, val, ver)
			return err
		})
		// One commit per old file bounds what the import holds staged.
		if cerr := in.log.Commit(); err == nil {
			err = cerr
		}
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("core: import %s: %w", name, err)
		}
	}
	if len(old) == 0 {
		return nil
	}
	if err := in.log.Sync(); err != nil {
		return err
	}
	for _, name := range old {
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("core: import: %w", err)
		}
	}
	return nil
}

// partitionOf returns the partition key hashes to. The index depends
// only on NumPartitions, which is immutable, so any table snapshot
// computes it.
func (in *Instance) partitionOf(key string) int {
	return in.tableRef().Partition(in.hashf(key))
}

// part returns partition p's state, or nil when p is out of range.
func (in *Instance) part(p int) *partition {
	if p < 0 || p >= len(in.parts) {
		return nil
	}
	return &in.parts[p]
}

// store returns (creating on demand) the store backing partition p on
// this instance.
func (in *Instance) store(p int) (*novoht.Store, error) {
	pt := in.part(p)
	if pt == nil {
		return nil, fmt.Errorf("core: bad partition %d", p)
	}
	return in.open(pt), nil
}

// open returns pt's store, creating it on first use. Log.Store returns
// one store per id, so racing creators publish the same one.
func (in *Instance) open(pt *partition) *novoht.Store {
	s := pt.store.Load()
	if s == nil {
		s = in.log.Store(pt.id)
		pt.store.Store(s)
	}
	return s
}

// Handle implements transport.Handler: the single entry point for
// every request this instance receives. It wraps the dispatch with
// the gossip epoch exchange — a newer epoch on the request triggers a
// catch-up pull, and every response carries our epoch back.
//
// A TCP server runs Handle on the goroutine that reads the connection
// (see transport.Handler), so anything that may block on another
// request or another server detaches first; only ops that finish on
// local state alone stay inline.
func (in *Instance) Handle(req *wire.Request) *wire.Response {
	if !in.servesInline(req) {
		req.Detach()
	}
	if req.Epoch > in.Epoch() {
		// The sender knows a newer ring than we do; we cannot reach it
		// by address, so pull from fallback peers.
		in.gossip.Observe("", req.Epoch)
	}
	resp := in.handle(req)
	if resp.Epoch == 0 {
		resp.Epoch = in.Epoch()
	}
	return resp
}

// servesInline reports whether req completes without issuing an RPC or
// waiting on a commit: lookups, and KV mutations and replica applies
// when nothing replicates from here and the WAL acknowledges before it
// syncs. An async mutation writes its WAL record inline, which is a
// syscall but never waits on another request. (A lookup can still meet
// a migrating partition; awaitMove detaches before it waits.) An
// envelope is inline here because handleBatch decides once it has
// decoded its sub-ops: it detaches only if one of them is not inline.
func (in *Instance) servesInline(req *wire.Request) bool {
	switch req.Op {
	case wire.OpLookup, wire.OpBatch:
		return true
	case wire.OpInsert, wire.OpRemove, wire.OpAppend, wire.OpCas:
		if in.mutates(req) {
			return false
		}
		fallthrough
	case wire.OpReplicate:
		d := in.cfg.Durability
		return d == storage.DurabilityNone || d == storage.DurabilityAsync
	}
	return false
}

// handle dispatches one request to its op handler.
func (in *Instance) handle(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpInsert, wire.OpLookup, wire.OpRemove, wire.OpAppend, wire.OpCas:
		return in.handleKV(req)
	case wire.OpBatch:
		return in.handleBatch(req)
	case wire.OpReplicate:
		resp := wire.GetResponse()
		in.handleReplicate(req, resp)
		if err := in.log.Commit(); err != nil {
			setErr(resp, err)
		}
		return resp
	case wire.OpMembership:
		return in.handleMembership()
	case wire.OpDelta:
		return in.handleDelta(req)
	case wire.OpMigrate:
		return in.handleMigrate(req)
	case wire.OpPing:
		return wire.Reply(wire.StatusOK, nil)
	case wire.OpReport:
		return in.handleReport(req)
	case wire.OpBroadcast:
		return in.handleBroadcast(req)
	case wire.OpDigest:
		return in.handleDigest(req)
	case wire.OpRepairPull:
		return in.handleRepairPull(req)
	case wire.OpDeltaPull:
		return in.handleDeltaPull(req)
	}
	return wire.ErrorReply("core: unsupported op " + req.Op.String())
}

// handleKV serves the four basic operations plus CAS as a batch of
// one: past the admission and size gates, the op runs through the same
// applyBatch an envelope's sub-ops do — migration gate, in-flight
// count, ownership, apply, replica legs, write level.
func (in *Instance) handleKV(req *wire.Request) *wire.Response {
	release, refused := in.admit(req)
	if refused != nil {
		return refused
	}
	if release != nil {
		defer release()
	}
	p := in.partitionOf(req.Key)
	resp := wire.GetResponse()

	// Replica reads bypass ownership and the migration gate: a quorum
	// read's coordinator is asking THIS node for its local copy of the
	// pair (plus its version stamp), explicitly not for the
	// authoritative answer. Serve whatever is stored — possibly stale,
	// that is the point — and never instantiate a store for a
	// partition this node holds nothing of.
	if req.Op == wire.OpLookup && req.Flags&wire.FlagReplicaRead != 0 {
		if s := in.storeIfPresent(p); s == nil {
			resp.Status = wire.StatusNotFound
		} else {
			in.applyLookup(s, req, resp, nil)
		}
		return resp
	}

	// The op rides the pooled scratch's one-element slots, so a single
	// op allocates nothing a batch of one would not. req is the one to
	// detach if a migration gate has to wait: the delta that ends the
	// wait may arrive on this connection.
	sc := batchPool.Get().(*batchScratch)
	sc.one[0], sc.oneResp[0] = req, resp
	sc.tags = append(sc.tags, int64(p)<<32)
	in.applyBatch(sc.one[:], sc.oneResp[:], sc, req)
	sc.release()
	return resp
}

// writeLevel resolves the effective write consistency for one
// request: its own Consistency field when set, the deployment default
// otherwise.
func (in *Instance) writeLevel(req *wire.Request) wire.Consistency {
	if req.Consistency != wire.ConsistencyDefault {
		return req.Consistency
	}
	return in.cfg.WriteLevel
}

// storeIfPresent returns partition p's store only if this instance
// already holds one, never creating it.
func (in *Instance) storeIfPresent(p int) *novoht.Store {
	if pt := in.part(p); pt != nil {
		return pt.store.Load()
	}
	return nil
}

// applyMutation applies one mutation given the envelope's floor stamp
// to the owner's store, as one store call in the store's critical
// section, and answers into resp, which arrives zeroed. Every level of
// replication shares it. It returns the stamp the store stored — the
// floor, or above the key's stored stamp, where the store orders the
// key's writes — and the value an append's replica legs carry: the
// accumulated value, so a replica that missed an earlier leg converges
// to the primary's bytes instead of appending onto a different base, or
// nil when the legs carry req.Value. A replicated remove's stamp is
// observed, floor included, so the floor passes it before the key's
// tombstone, the store's one memory of it, can be reclaimed; a pair's
// stamp needs no observe, as the store keeps it.
func (in *Instance) applyMutation(s *novoht.Store, req *wire.Request, resp *wire.Response, floor uint64) (uint64, []byte) {
	var ver uint64
	var legVal []byte
	var err error
	switch req.Op {
	case wire.OpInsert:
		if req.Flags&wire.FlagIfAbsent == 0 {
			ver, err = s.PutV(req.Key, req.Value, floor)
			break
		}
		// An expired TTL envelope counts as absent (lazy expiry must not
		// block a fresh add, memcached `add` semantics); the store judges
		// it in the same critical section as the put.
		var ok bool
		if ok, ver, err = s.PutIfAbsentV(req.Key, req.Value, floor, tenant.Expired); err == nil && !ok {
			resp.Status = wire.StatusExists
		}
	case wire.OpRemove:
		// The owner is the serialization point, so the local delete
		// needs no newer-wins check; its stamp rides the replica legs,
		// where BuryLWW refuses to delete a newer write. A replicated
		// remove leaves a tombstone, so no copy of the pair collected
		// before it, from a replica or a repair, lands after it.
		var ok bool
		if in.cfg.Replicas > 0 {
			ok, ver, err = s.BuryV(req.Key, floor)
			in.clock.Observe(ver)
		} else {
			ok, ver, err = s.RemoveV(req.Key, floor)
		}
		if err == nil && !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpAppend:
		var dst []byte
		if in.cfg.Replicas > 0 {
			dst = wire.GetBuffer()
		}
		// The value escapes into the replica legs, which alias it until
		// the fan-out has sent or copied them; ownership passes back as
		// legVal and applyBatch releases it afterwards.
		if legVal, ver, err = s.AppendV(dst, req.Key, req.Value, floor); err != nil && legVal != nil {
			wire.PutBuffer(legVal)
			legVal = nil
		}
	case wire.OpCas:
		// FlagIfAbsent marks "expect absent"; otherwise Aux is the
		// expected current value (nil Aux = expect empty value, since
		// the wire layer normalizes empty to nil).
		var old []byte
		if req.Flags&wire.FlagIfAbsent == 0 {
			old = req.Aux
			if old == nil {
				old = []byte{}
			}
		}
		var swapped bool
		var cur []byte
		if swapped, cur, ver, err = s.CasV(req.Key, old, req.Value, floor); err == nil && !swapped {
			resp.Status = wire.StatusCasMismatch
			resp.Value = cur
		}
	default:
		resp.Status, resp.Err = wire.StatusError, "core: bad kv op"
	}
	if err != nil {
		setErr(resp, err)
	}
	return ver, legVal
}

// mutates reports whether req is a KV mutation with replica legs to
// push along the chain.
func (in *Instance) mutates(req *wire.Request) bool {
	return req.Op != wire.OpLookup && in.cfg.Replicas > 0
}

// setErr answers resp with StatusError and err's text.
func setErr(resp *wire.Response, err error) {
	resp.Status = wire.StatusError
	resp.Err = err.Error()
}

// applyLookup serves one lookup from a store and answers into resp,
// which arrives zeroed, with the pair's stamp: quorum-read
// coordinators resolve copies newest-version-wins. Lookups are
// TTL-aware: a value whose tenant envelope has expired answers
// NotFound (lazy expiry, DESIGN.md §13) — the pair itself is deleted
// later by the anti-entropy reaper, never on the read path.
//
// A looked-up value is copied once out of the store: appended to
// *arena when the caller has one (an envelope's value arena, alive
// until the envelope response is encoded), otherwise into a pooled
// buffer that resp owns and the transport writer recycles after
// encoding.
func (in *Instance) applyLookup(s *novoht.Store, req *wire.Request, resp *wire.Response, arena *[]byte) {
	var buf []byte
	if arena != nil {
		buf = *arena
	} else {
		buf = wire.GetBuffer()
	}
	start := len(buf)
	v, ver, found, err := s.GetAppendV(buf, req.Key)
	val := v[start:]
	switch {
	case err != nil:
		setErr(resp, err)
	case !found:
		resp.Status = wire.StatusNotFound
	case tenant.Expired(val):
		in.met.expiredReads.Inc()
		resp.Status = wire.StatusNotFound
	default:
		resp.Version = ver
		if len(val) == 0 {
			break
		}
		if arena != nil {
			*arena = v
			resp.Value = val[:len(val):len(val)]
		} else {
			resp.SetPooledValue(v)
		}
		return
	}
	if arena == nil {
		wire.PutBuffer(v)
	}
}

// replicaFwd rewrites a successful primary mutation into the
// OpReplicate message pushed to the partition's replicas, carrying the
// version the primary stamped. A successful CAS is replicated as a
// plain insert of the new value: the decision was already made at the
// primary, and re-running the comparison on a replica whose async
// state lags could diverge. Conditional inserts likewise, and appends
// too — legVal is the full post-append value, so a
// replica that missed an earlier leg still converges to the primary's
// bytes (the LWW compare needs whole-value legs to be meaningful).
func replicaFwd(p int, req *wire.Request, ver uint64, legVal []byte) wire.Request {
	fwd := *req
	fwd.Op = wire.OpReplicate
	fwd.Version = ver
	innerOp := req.Op
	if req.Op == wire.OpCas || req.Op == wire.OpAppend {
		innerOp = wire.OpInsert
	}
	if legVal != nil {
		fwd.Value = legVal
	}
	fwd.Flags &^= wire.FlagIfAbsent
	fwd.Aux = encodeReplicaAux(innerOp)
	fwd.Partition = int64(p)
	return fwd
}

// encodeReplicaAux packs the op a replica applies — insert or remove —
// into the Aux field of an OpReplicate message.
func encodeReplicaAux(op wire.Op) []byte { return []byte{byte(op)} }

// handleReplicate applies a forwarded mutation to the local replica
// store for the partition and answers into resp, which arrives zeroed.
// Legs resolve last-writer-wins: a stale leg (reordered behind a newer
// write on the sync/async seam, or replayed from the leg queue after
// the key moved on) is rejected by the version compare instead of
// clobbering the newer state. Every sender stamps its legs, so a leg
// without a version is refused.
func (in *Instance) handleReplicate(req *wire.Request, resp *wire.Response) {
	if len(req.Aux) < 1 || req.Version == 0 {
		resp.Status, resp.Err = wire.StatusError, "core: replicate without op or version"
		return
	}
	pt := in.part(int(req.Partition))
	if pt == nil {
		resp.Status, resp.Err = wire.StatusError, fmt.Sprintf("core: bad partition %d", req.Partition)
		return
	}
	var applied bool
	var err error
	switch op := wire.Op(req.Aux[0]); op {
	case wire.OpInsert:
		applied, err = in.install(pt, req.Key, req.Value, req.Version)
	case wire.OpRemove:
		if err = in.checkPartition(pt.id, req.Key); err == nil {
			in.clock.Observe(req.Version)
			// Buried even on a copy that lacks the key (a missed leg, a
			// rebuild still filling it), so no stale copy revives it.
			applied, err = in.open(pt).BuryLWW(req.Key, req.Version)
		}
	default:
		resp.Status, resp.Err = wire.StatusError, "core: bad replica op "+op.String()
		return
	}
	if err != nil {
		setErr(resp, err)
	} else if !applied {
		in.met.versionConflicts.Inc()
	}
}

// install lands a stamped pair another node produced — a replica leg
// or a leaf-stream transfer — into partition pt's store,
// last-writer-wins. It is the one way such a pair enters a local
// store. It refuses a key that does not hash to pt: the log replays
// each record into the partition its key hashes to. The store keeps
// the stamp, so this node's next write of the key lands above it and is
// never refused by a copy that holds the installed pair. A pair no
// newer than a remove of the key this node buried is refused by the
// remove's tombstone, in the store's critical section.
func (in *Instance) install(pt *partition, key string, val []byte, ver uint64) (bool, error) {
	if err := in.checkPartition(pt.id, key); err != nil {
		return false, err
	}
	return in.open(pt).PutLWW(key, val, ver)
}

// checkPartition refuses a pair that names partition p but whose key
// hashes elsewhere.
func (in *Instance) checkPartition(p int, key string) error {
	if q := in.partitionOf(key); q != p {
		return fmt.Errorf("core: key hashes to partition %d, not %d", q, p)
	}
	return nil
}

// handleMembership returns the current table.
func (in *Instance) handleMembership() *wire.Response {
	enc := ring.EncodeTable(in.tableRef())
	r := wire.Reply(wire.StatusOK, nil)
	r.Table = enc
	return r
}

// handleDelta applies an incremental membership update (or adopts a
// full table when Aux carries one). On epoch mismatch for a delta the
// caller receives an error and is expected to fall back to sending
// its full table.
func (in *Instance) handleDelta(req *wire.Request) *wire.Response {
	if d, err := ring.DecodeDelta(req.Aux); err == nil {
		if _, err := in.applyDelta(d, req.Aux); err != nil {
			r := wire.ErrorReply(err.Error())
			r.Table = ring.EncodeTable(in.tableRef())
			return r
		}
		return wire.Reply(wire.StatusOK, nil)
	}
	t, err := ring.DecodeTable(req.Aux)
	if err != nil {
		return wire.ErrorReply("core: delta payload is neither delta nor table")
	}
	in.adoptTableIfNewer(t) // an older table is a no-op: already current
	return wire.Reply(wire.StatusOK, nil)
}

// afterTableChange reconciles local state with a new table: completes
// outgoing migrations whose partitions moved away, and fills the
// replicas of owned partitions whose copy set changed.
func (in *Instance) afterTableChange(old, nt *ring.Table) {
	myOld := old.IndexOf(in.self.ID)
	myNew := nt.IndexOf(in.self.ID)
	// A failure, departure or join that changes a partition's copy set
	// leaves a copy to fill: the paper's manager "initiates a
	// rebuilding of the replicas, specifically increasing replication
	// on all partitions stored on the failed physical node", and a
	// join's newcomer may be a new replica. Each current owner
	// re-pushes the partitions whose copy set the update changed.
	for p := 0; p < nt.NumPartitions; p++ {
		ownedBefore := myOld >= 0 && old.Owner[p] == myOld
		ownedNow := myNew >= 0 && nt.Owner[p] == myNew
		if ownedBefore && !ownedNow {
			// Outgoing migration completed: release the queued
			// requests to the post-gate ownership check, which answers
			// them WrongOwner with this table.
			in.completeMigration(p)
		}
		if ownedNow && in.cfg.Replicas > 0 && ring.CopySetChanged(old, nt, p, in.cfg.Replicas) {
			in.rebuildReplicas(nt, p)
		}
	}
}

// rebuildReplicas converges partition p's replicas in table toward
// this owner's copy, asynchronously: a digest diff and an upsert-only
// leaf push to each (pushToReplicas).
func (in *Instance) rebuildReplicas(table *ring.Table, p int) {
	in.async.goAsync(func() { in.pushToReplicas(table, p) })
}

// handleMigrate serves a streaming migration's two cutover requests,
// named by Aux: "lock" (handleMigrateLock) and "abort", which rolls a
// lock back. Anything else is an error: pairs move through the leaf
// stream, never in an OpMigrate.
func (in *Instance) handleMigrate(req *wire.Request) *wire.Response {
	p := int(req.Partition)
	if in.part(p) == nil {
		return wire.ErrorReply("core: bad partition")
	}
	switch string(req.Aux) {
	case string(migrateLockMarker):
		return in.handleMigrateLock(p)
	case string(migrateAbortMarker):
		in.completeMigration(p)
		return wire.Reply(wire.StatusOK, nil)
	}
	return wire.ErrorReply("core: unknown migrate request")
}

// handleMigrateLock serves the cutover request: the incoming owner has
// already streamed the partition's content and now asks us to stop
// serving it. We lock the partition (lockForMove) and reply — the
// requester then runs its locked final sync and commits the delta,
// which releases the queued requests to the fresh table.
func (in *Instance) handleMigrateLock(p int) *wire.Response {
	table := in.tableRef()
	if table.OwnerOf(p).ID != in.self.ID {
		r := wire.Reply(wire.StatusWrongOwner, nil)
		r.Table = ring.EncodeTable(table)
		return r
	}
	ps := in.lockForMove(p)
	if ps == nil {
		return wire.ErrorReply("core: partition already migrating")
	}
	in.migrationWatchdog(p, ps)
	return wire.Reply(wire.StatusOK, nil)
}

// lockForMove begins an outgoing migration of partition p — new
// requests queue behind its gate — and drains the appliers already
// past the gate: once p's in-flight count reads zero, every envelope
// that entered it has finished applying (and replicating), and any
// that enters later reads the migration's record and backs out.
// It returns the migration's record, or nil when p is already migrating.
func (in *Instance) lockForMove(p int) *partState {
	pt := in.part(p)
	ps := pt.beginMigration()
	if ps != nil {
		for pt.inflight.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return ps
}

// migrationWatchdog fails partition p's open migration ps if the
// confirming delta never arrives, so queued requests are not stuck
// forever.
func (in *Instance) migrationWatchdog(p int, ps *partState) {
	go func() {
		timer := time.NewTimer(migrationTimeout)
		defer timer.Stop()
		select {
		case <-ps.done:
		case <-timer.C:
			in.completeMigration(p)
		case <-in.closed:
		}
	}()
}

// beginMigration locks pt for an outgoing move and returns the
// migration's record, or nil when a migration is already in flight.
func (pt *partition) beginMigration() *partState {
	ps := &partState{done: make(chan struct{})}
	if !pt.mig.CompareAndSwap(nil, ps) {
		return nil
	}
	return ps
}

// completeMigration ends partition p's open outgoing move, committed
// or rolled back, and releases the requests queued behind it: each
// passes the gate again, and the post-gate ownership check serves it
// or answers it WrongOwner with the current table.
func (in *Instance) completeMigration(p int) {
	if ps := in.part(p).mig.Swap(nil); ps != nil {
		close(ps.done)
	}
}

// awaitMove waits for the move ps to resolve, detaching req first (the
// delta that ends the wait may arrive on the same connection). It
// returns nil once the move resolved, or the answer for a move that
// never does or an instance that closed.
func (in *Instance) awaitMove(ps *partState, req *wire.Request) *wire.Response {
	req.Detach()
	select {
	case <-ps.done:
		return nil
	case <-time.After(migrationTimeout + time.Second):
		return wire.ErrorReply("core: migration stuck")
	case <-in.closed:
		return wire.ErrorReply("core: instance closed")
	}
}

// testGatePass, nil outside tests, runs in lockBatch between a group's
// entry into its partition's in-flight count and its read of the
// partition's migration record.
var testGatePass func(in *Instance, p int)

// handleReport processes a failure report: verify the accused is
// really unreachable, then fail it over and announce the update
// (manager role, §III.C unplanned departures).
func (in *Instance) handleReport(req *wire.Request) *wire.Response {
	accused := ring.InstanceID(req.Key)
	table := in.tableRef()
	idx := table.IndexOf(accused)
	if idx < 0 {
		return wire.ErrorReply("core: report for unknown instance")
	}
	if failedOver(table, idx) {
		// Already handled; return the fresher table.
		r := wire.Reply(wire.StatusOK, nil)
		r.Table = ring.EncodeTable(table)
		return r
	}
	// Verify: a single ping with the transport's timeout. The client
	// already retried with exponential backoff before reporting.
	if accused != in.self.ID {
		if r, _ := call(in.caller, table.Instances[idx].Addr, &wire.Request{Op: wire.OpPing}); r.status == wire.StatusOK {
			return wire.ErrorReply("core: accused instance is alive")
		}
	}
	// This table may not show yet that the accused departed or failed
	// over. The first replica of its partitions, which takes them over,
	// hears every such change: catch up from it before planning.
	if parts := table.PartitionsOf(idx); len(parts) > 0 {
		if reps := table.ReplicasOf(parts[0], 1); len(reps) > 0 && reps[0].ID != in.self.ID {
			in.gossipPull(reps[0].Addr)
			if table = in.tableRef(); failedOver(table, idx) {
				r := wire.Reply(wire.StatusOK, nil)
				r.Table = ring.EncodeTable(table)
				return r
			}
		}
	}
	d, err := table.PlanFailure(accused, max(in.cfg.Replicas, 1))
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	nt, err := in.applyAndAnnounce(table, d)
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	r := wire.Reply(wire.StatusOK, nil)
	r.Table = ring.EncodeTable(nt)
	return r
}

// failedOver reports whether the instance at idx needs no failover: it
// is not Alive and owns no partition. One that is not Alive but still
// owns partitions is failed over again — the table that replays a tied
// epoch's winning frame onto the losing change can name it (DESIGN.md
// §10).
func failedOver(table *ring.Table, idx int) bool {
	return table.Status[idx] != ring.Alive && !slices.Contains(table.Owner, idx)
}

// applyAndAnnounce applies d, planned on old, to the local table and
// announces it.
func (in *Instance) applyAndAnnounce(old *ring.Table, d ring.Delta) (*ring.Table, error) {
	frame := ring.EncodeDelta(d)
	nt, err := in.applyDelta(d, frame)
	if err != nil {
		return nil, err
	}
	_, err = in.announce(old, nt, frame, "")
	return nt, err
}

// errLostRace reports a membership change that another change,
// committed elsewhere at the same epoch, won (see announce).
var errLostRace = errors.New("core: a concurrent membership change won the epoch")

// announce, the one sender of membership changes, pushes the delta
// frame that took old to nt to the alive ring.CopyHolders of the change
// but this instance, or the full table to a holder at another epoch;
// gossip reaches the rest (DESIGN.md §10). A non-empty commit must
// accept first (a join's relieved instance); a refusal returns the
// table it carried. A commit holder that lags old is handed old and
// asked again: a change whose copies it held none of reaches it only
// by gossip, which need not have arrived. A holder answering with a
// table of nt's epoch that orders after nt (ring.Table.After) wins the
// race: announce adopts it, hands it to every holder it told, and
// returns it with errLostRace.
func (in *Instance) announce(old, nt *ring.Table, frame []byte, commit string) (*ring.Table, error) {
	var told []string
	if commit != "" {
		r, _ := call(in.caller, commit, &wire.Request{Op: wire.OpDelta, Aux: frame})
		if w := r.table; r.status != wire.StatusOK && w != nil && w.Epoch < old.Epoch {
			call(in.caller, commit, &wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(old)})
			r, _ = call(in.caller, commit, &wire.Request{Op: wire.OpDelta, Aux: frame})
		}
		if r.status != wire.StatusOK {
			return r.table, fmt.Errorf("core: %s refused the commit (epoch race): %s", commit, r.err)
		}
		told = append(told, commit)
	}
	holders := ring.CopyHolders(old, nt, in.cfg.Replicas)
	encT := ring.EncodeTable(nt)
	for i, peer := range nt.Instances {
		if !holders[peer.ID] || peer.ID == in.self.ID || peer.Addr == commit || nt.Status[i] != ring.Alive {
			continue
		}
		if r, _ := call(in.caller, peer.Addr, &wire.Request{Op: wire.OpDelta, Aux: frame}); r.status != wire.StatusOK {
			if w := r.table; w != nil && w.Epoch == nt.Epoch && w.After(nt) {
				in.adoptTableIfNewer(w)
				encW := ring.EncodeTable(w)
				for _, addr := range told {
					call(in.caller, addr, &wire.Request{Op: wire.OpDelta, Aux: encW})
				}
				return w, errLostRace
			}
			call(in.caller, peer.Addr, &wire.Request{Op: wire.OpDelta, Aux: encT})
		}
		told = append(told, peer.Addr)
	}
	return nil, nil
}

// handleBroadcast checks the origin and this instance's membership,
// then stores the pair locally and forwards it down the spanning tree
// (future-work broadcast primitive, implemented). The tree is a binary
// tree over ring indices relabeled so the origin (req.Partition) is
// the root. A refused broadcast is not delivered.
func (in *Instance) handleBroadcast(req *wire.Request) *wire.Response {
	table := in.tableRef()
	n := len(table.Instances)
	origin := int(req.Partition)
	if origin < 0 || origin >= n {
		return wire.ErrorReply("core: bad broadcast origin")
	}
	myIdx := table.IndexOf(in.self.ID)
	if myIdx < 0 {
		return wire.ErrorReply("core: not a member")
	}
	in.bmu.Lock()
	in.bcast[req.Key] = append([]byte(nil), req.Value...)
	in.bmu.Unlock()

	pos := (myIdx - origin + n) % n
	for _, childPos := range []int{2*pos + 1, 2*pos + 2} {
		if childPos >= n {
			continue
		}
		childIdx := (origin + childPos) % n
		if table.Status[childIdx] != ring.Alive {
			continue
		}
		fwd := *req
		fwd.Hop = req.Hop + 1
		fwd.Value = append([]byte(nil), req.Value...)
		addr := table.Instances[childIdx].Addr
		in.async.goAsync(func() { call(in.caller, addr, &fwd) })
	}
	return wire.Reply(wire.StatusOK, nil)
}

// BroadcastValue returns the locally delivered broadcast value for
// key, if any (used by tests and examples to observe dissemination).
func (in *Instance) BroadcastValue(key string) ([]byte, bool) {
	in.bmu.Lock()
	defer in.bmu.Unlock()
	v, ok := in.bcast[key]
	return v, ok
}

// Drain waits for in-flight asynchronous work to finish: broadcast
// forwards, replica rebuilds, and one send of every leg queued to an
// answering destination (legs in a failing destination's handoff
// backlog are not waited for).
func (in *Instance) Drain() {
	in.legs.Drain()
	in.async.wait()
}

// Close closes every partition store, then flushes and closes the log.
func (in *Instance) Close() error {
	in.closeMu.Lock()
	select {
	case <-in.closed:
		in.closeMu.Unlock()
		return nil
	default:
		close(in.closed)
	}
	in.closeMu.Unlock()
	in.gossip.Close() // before async drain: a pull can spawn async work
	in.Drain()
	in.loopWG.Wait() // anti-entropy exits on closed
	in.legs.Close()  // discards the handoff backlogs
	return in.log.Close()
}

// openStores lists the partition stores created so far.
func (in *Instance) openStores() []*novoht.Store {
	var out []*novoht.Store
	for p := range in.parts {
		if s := in.parts[p].store.Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// LocalKeys reports the number of keys across all local partition
// stores (owned + replicas).
func (in *Instance) LocalKeys() int {
	n := 0
	for _, s := range in.openStores() {
		n += s.Len()
	}
	return n
}

// PartitionKeys reports keys stored locally for one partition.
func (in *Instance) PartitionKeys(p int) int {
	s := in.storeIfPresent(p)
	if s == nil {
		return 0
	}
	return s.Len()
}
