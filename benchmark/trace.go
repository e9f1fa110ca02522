package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/core"
	"zht/internal/memcached"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// The traced run measures every layer from outside: each span is taken by
// a wrapper around a public seam (transport.Caller, transport.Handler,
// core.AdmissionHook, memcached.Store, the gateway's net.Listener) or by
// the worker around its own call. Nothing under internal/ is instrumented,
// so a span cannot say which client call caused it; spans are joined
// afterwards by key among the calls in flight at the time.

var epoch = time.Now()

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

// Span kinds, outermost first: at equal start times a parent sorts before
// its children.
const (
	spanClientOp     spanKind = iota // the worker's call into its session
	spanGatewayCmd                   // gateway connection: command read to reply written
	spanGatewayStore                 // the gateway's call into its memcached.Store
	spanCallerCall                   // the transport.Caller given to core.Client
	spanHandler                      // the transport.Handler behind a listener
	spanLegCall                      // the transport.Caller given to the instances
	spanAdmit                        // core.AdmissionHook.Admit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.op", "gateway.cmd", "gateway.store", "caller.call", "handler", "leg.call", "admit",
}

// parentKinds lists, for each kind, the kinds a parent may have, innermost
// first: the first kind that offers a candidate decides.
var parentKinds = [numSpanKinds][]spanKind{
	spanGatewayCmd:   {spanClientOp},
	spanGatewayStore: {spanGatewayCmd},
	spanCallerCall:   {spanGatewayStore, spanClientOp},
	spanHandler:      {spanLegCall, spanCallerCall},
	spanLegCall:      {spanHandler},
	spanAdmit:        {spanHandler},
}

// Join results kept in span.parent besides a parent's index.
const (
	noParent  int32 = -1 // a root, or nothing in flight could have caused it
	ambiguous int32 = -2 // more than one call in flight could have caused it
)

type span struct {
	kind       spanKind
	write      bool  // client.op: the call was a write
	start, end int64 // now()
	// up is the fingerprint a parent must offer; down is the fingerprint
	// this span offers its children. A batch client.op offers the set
	// tracer.sets[set-1] instead of down; set is 0 otherwise.
	up, down uint64
	set      int32
	parent   int32
}

// tracer collects spans into a preallocated buffer. Recording is off
// until enabled; a full buffer ends the traced pass.
type tracer struct {
	on     atomic.Bool
	n      atomic.Int64
	fullAt atomic.Int64 // now() when the first span was refused
	spans  []span

	mu   sync.Mutex
	sets [][]uint64

	failedCalls atomic.Int64 // caller.call or leg.call that errored or was shed
}

// traceCap bounds a traced pass: enough for some fifty thousand calls of
// the deepest workload, small enough to hold in memory and write out in
// well under a second.
const traceCap = 300_000

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.fullAt.CompareAndSwap(0, s.end)
		return
	}
	s.parent = noParent
	t.spans[i] = s
}

func (t *tracer) full() bool { return t.fullAt.Load() != 0 }

// addSet registers the fingerprints a batch client.op offers and returns
// the value for span.set.
func (t *tracer) addSet(fps []uint64) int32 {
	cp := append([]uint64(nil), fps...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sets = append(t.sets, cp)
	return int32(len(t.sets))
}

// recorded returns the spans taken so far. Call it only after everything
// that records has stopped.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// fpKey fingerprints a key with any tenant namespace removed, so the same
// user key matches above and below the gateway.
func fpKey(key string) uint64 {
	_, key = tenant.Split(key)
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// fpAddr separates the same key at different instances (owner and replica
// of one quorum read).
func fpAddr(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64() * 0x9e3779b97f4a7c15
}

// fpEnvelope fingerprints a batch envelope by the bytes both ends see.
func fpEnvelope(aux []byte) uint64 {
	h := fnv.New64a()
	h.Write(aux[:min(len(aux), 256)])
	return h.Sum64() + uint64(len(aux))
}

// caller wraps a transport.Caller; a nil tracer returns c itself.
func (t *tracer) caller(c transport.Caller, kind spanKind) transport.Caller {
	if t == nil {
		return c
	}
	return &tracedCaller{Caller: c, t: t, kind: kind}
}

type tracedCaller struct {
	transport.Caller
	t    *tracer
	kind spanKind
}

func (c *tracedCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if !c.t.on.Load() {
		return c.Caller.Call(addr, req)
	}
	fp := fpKey(req.Key)
	return c.timed(addr, req, fp, fp)
}

// CallBatch builds the OpBatch envelope itself — as every Caller in this
// repository does, through transport.EnvelopeCallBatch — so that the span
// can carry a fingerprint of the envelope bytes, the only thing the handler
// on the other side sees of a batch.
func (c *tracedCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if !c.t.on.Load() || len(reqs) == 0 {
		return c.Caller.CallBatch(addr, reqs)
	}
	return transport.EnvelopeCallBatch(envelopeCaller{c, fpKey(reqs[0].Key)}, addr, reqs)
}

type envelopeCaller struct {
	*tracedCaller
	up uint64
}

func (e envelopeCaller) Call(addr string, env *wire.Request) (*wire.Response, error) {
	return e.timed(addr, env, e.up, fpEnvelope(env.Aux))
}

func (c *tracedCaller) timed(addr string, req *wire.Request, up, down uint64) (*wire.Response, error) {
	down ^= fpAddr(addr)
	start := now()
	resp, err := c.Caller.Call(addr, req)
	end := now()
	if err != nil || resp.Status == wire.StatusBusy {
		c.t.failedCalls.Add(1)
	}
	c.t.add(span{kind: c.kind, start: start, end: end, up: up, down: down})
	return resp, err
}

// handler wraps the transport.Handler an instance hands its listener.
func (t *tracer) handler(addr string, h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	self := fpAddr(addr)
	return func(req *wire.Request) *wire.Response {
		if !t.on.Load() {
			return h(req)
		}
		// The request belongs to the transport again once h returns,
		// so fingerprint it first. A batch handler offers its children
		// nothing: its sub-keys are not visible without decoding.
		var up, down uint64
		if req.Op == wire.OpBatch {
			up = fpEnvelope(req.Aux)
		} else {
			up = fpKey(req.Key)
			down = up
		}
		start := now()
		resp := h(req)
		t.add(span{kind: spanHandler, start: start, end: now(), up: up ^ self, down: down})
		return resp
	}
}

// admission wraps the hook given to core.Config.Admission.
func (t *tracer) admission(a core.AdmissionHook) core.AdmissionHook {
	if t == nil {
		return a
	}
	return tracedAdmission{a, t}
}

type tracedAdmission struct {
	core.AdmissionHook
	t *tracer
}

func (a tracedAdmission) Admit(key string, cost int) (func(), time.Duration, bool) {
	if !a.t.on.Load() {
		return a.AdmissionHook.Admit(key, cost)
	}
	start := now()
	release, retryAfter, ok := a.AdmissionHook.Admit(key, cost)
	a.t.add(span{kind: spanAdmit, start: start, end: now(), up: fpKey(key)})
	return release, retryAfter, ok
}

// store wraps the memcached.Store the gateway drives.
func (t *tracer) store(s memcached.Store) memcached.Store {
	if t == nil {
		return s
	}
	return tracedStore{s, t}
}

type tracedStore struct {
	memcached.Store
	t *tracer
}

// span starts a gateway.store span for key and returns the func ending it.
func (s tracedStore) span(key string) func() {
	if !s.t.on.Load() {
		return func() {}
	}
	fp, start := fpKey(key), now()
	return func() {
		s.t.add(span{kind: spanGatewayStore, start: start, end: now(), up: fp, down: fp})
	}
}

func (s tracedStore) Insert(key string, val []byte) error {
	defer s.span(key)()
	return s.Store.Insert(key, val)
}

func (s tracedStore) InsertIfAbsent(key string, val []byte) error {
	defer s.span(key)()
	return s.Store.InsertIfAbsent(key, val)
}

func (s tracedStore) Lookup(key string) ([]byte, error) {
	defer s.span(key)()
	return s.Store.Lookup(key)
}

func (s tracedStore) Remove(key string) error {
	defer s.span(key)()
	return s.Store.Remove(key)
}

func (s tracedStore) Cas(key string, oldVal, newVal []byte) ([]byte, error) {
	defer s.span(key)()
	return s.Store.Cas(key, oldVal, newVal)
}

// listener wraps the gateway's listener so that each accepted connection
// records a gateway.cmd span from the read that delivered a command to
// the write that answered it.
func (t *tracer) listener(ln net.Listener) net.Listener {
	if t == nil {
		return ln
	}
	return tracedListener{ln, t}
}

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn is used by one gateway goroutine, which reads a command and
// then writes its reply, so Read and Write never run concurrently.
type tracedConn struct {
	net.Conn
	t     *tracer
	start int64 // 0 = no command pending
	fp    uint64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.start == 0 && c.t.on.Load() {
		c.start = now()
		// "<cmd> <key> ...": the key is the second field of the line.
		if f := bytes.Fields(p[:min(n, 300)]); len(f) >= 2 {
			c.fp = fpKey(string(f[1]))
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.start != 0 {
		c.t.add(span{kind: spanGatewayCmd, start: c.start, end: now(), up: c.fp, down: c.fp})
		c.start = 0
	}
	return n, err
}

// Layers that self time is attributed to.
type layer int

const (
	layerClient     layer = iota // core.Client: hash, ring lookup, retry logic
	layerTransport               // codec, sockets, goroutine handoffs, both ways
	layerInstance                // dispatch, locks, digest, NoVoHT, WAL
	layerReplicaLeg              // synchronous replica legs, end to end
	layerGateway                 // memcached parser, envelope, reply
	layerGatewayHop              // the text-protocol connection in front of the gateway
	layerTenant                  // admission hook
	numLayers
)

var layerNames = [numLayers]string{
	"client", "transport", "instance", "replica.leg", "gateway", "gateway.hop", "tenant",
}

// layerOf says whose time a span's self time is. parent is the kind of the
// span's parent.
func layerOf(kind, parent spanKind, gateway bool) layer {
	switch kind {
	case spanClientOp:
		if gateway {
			return layerGatewayHop
		}
		return layerClient
	case spanGatewayCmd:
		return layerGateway
	case spanGatewayStore:
		return layerClient
	case spanCallerCall:
		return layerTransport
	case spanHandler:
		if parent == spanLegCall {
			return layerReplicaLeg
		}
		return layerInstance
	case spanLegCall:
		return layerReplicaLeg
	}
	return layerTenant
}

// offers reports whether p can be the parent of a span asking for fp.
func (t *tracer) offers(p *span, fp uint64) bool {
	if p.set == 0 {
		return p.down == fp
	}
	for _, x := range t.sets[p.set-1] {
		if x == fp {
			return true
		}
	}
	return false
}

// joinStats counts what the join could not place.
type joinStats struct {
	spans     int
	ambiguous int // dropped: more than one candidate parent
	orphans   int // no candidate: async legs, gossip, spans cut by the window
	tainted   int // client calls excluded because a dropped span may be theirs
}

// join links every span to the innermost span in flight that could have
// caused it. A span with several candidates is dropped, and every client
// call one of the candidates belongs to is marked tainted, because the
// dropped span's time is missing from one of them. It returns the tainted
// roots.
func (t *tracer) join() (joinStats, map[int32]bool) {
	spans := t.recorded()
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.kind < y.kind
	})
	st := joinStats{spans: len(spans)}
	tainted := map[int32]bool{}
	var open [numSpanKinds][]int32
	var cands []int32
	for _, i := range order {
		s := &spans[i]
		for _, pk := range parentKinds[s.kind] {
			live := open[pk][:0]
			cands = cands[:0]
			for _, j := range open[pk] {
				p := &spans[j]
				if p.end < s.start {
					continue
				}
				live = append(live, j)
				if p.end >= s.end && t.offers(p, s.up) {
					cands = append(cands, j)
				}
			}
			open[pk] = live
			if len(cands) == 1 {
				s.parent = cands[0]
			} else if len(cands) > 1 {
				s.parent = ambiguous
				st.ambiguous++
				for _, j := range cands {
					if r := rootOf(spans, j); r >= 0 {
						tainted[r] = true
					}
				}
			}
			if len(cands) > 0 {
				break
			}
		}
		if s.parent == noParent && s.kind != spanClientOp {
			st.orphans++
		}
		open[s.kind] = append(open[s.kind], i)
	}
	st.tainted = len(tainted)
	return st, tainted
}

// rootOf follows parent links to the client.op a span belongs to, or -1.
func rootOf(spans []span, i int32) int32 {
	for spans[i].parent >= 0 {
		i = spans[i].parent
	}
	if spans[i].kind == spanClientOp {
		return i
	}
	return -1
}

// selfTime is a span's duration less the part of it its children cover;
// children may overlap each other and are clipped to the span. covered is
// that part.
func selfTime(s span, children []span) (self, covered int64) {
	sort.Slice(children, func(a, b int) bool { return children[a].start < children[b].start })
	edge := s.start
	for _, c := range children {
		lo, hi := max(c.start, edge), min(c.end, s.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.end - s.start - covered, covered
}

// traceReport is what a traced pass says about where a client call's time
// went. Means are per client call (for a batch workload, per batch).
type traceReport struct {
	join         joinStats
	calls        int                // client calls analysed
	meanCallUs   float64            // mean client.op duration
	selfUs       [numLayers]float64 // mean self time per client call
	callsPerOp   float64            // caller.call spans per client call
	legsPerWrite float64            // synchronous leg.call spans per write call
}

// share is a layer's part of the mean client call; the shares of all
// layers sum to 1 because every nanosecond of a call is some span's self
// time.
func (r *traceReport) share(l layer) float64 {
	if r.meanCallUs == 0 {
		return 0
	}
	return r.selfUs[l] / r.meanCallUs
}

// analyse joins the recorded spans and attributes self time to layers over
// every client call that is untainted and ended before the buffer filled.
//
// Children that run at once (a batch's envelopes to two instances, a quorum
// read's two copies) together cover less wall time than their durations
// add up to. Each then answers for its share of what they cover: its
// subtree's self times are scaled by covered / sum of durations, so that a
// call's layers still sum to the call.
func (t *tracer) analyse(gateway bool) traceReport {
	st, tainted := t.join()
	spans := t.recorded()
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	cutoff := t.fullAt.Load()
	rep := traceReport{join: st}
	var self [numLayers]float64
	var total, callerCalls, legs, writes int64
	var kids []span
	var walk func(i int32, parent spanKind, scale float64)
	walk = func(i int32, parent spanKind, scale float64) {
		s := spans[i]
		kids = kids[:0]
		var sum int64
		for _, c := range children[i] {
			kids = append(kids, spans[c])
			sum += spans[c].end - spans[c].start
		}
		own, covered := selfTime(s, kids)
		self[layerOf(s.kind, parent, gateway)] += scale * float64(own)
		switch s.kind {
		case spanCallerCall:
			callerCalls++
		case spanLegCall:
			legs++
		}
		if sum > 0 {
			scale *= float64(covered) / float64(sum)
		}
		for _, c := range children[i] {
			walk(c, s.kind, scale)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind != spanClientOp || tainted[int32(i)] || (cutoff != 0 && s.end >= cutoff) {
			continue
		}
		rep.calls++
		total += s.end - s.start
		if s.write {
			writes++
		}
		walk(int32(i), spanClientOp, 1)
	}
	if rep.calls == 0 {
		return rep
	}
	n := float64(rep.calls)
	rep.meanCallUs = float64(total) / n / 1e3
	for l := range self {
		rep.selfUs[l] = self[l] / n / 1e3
	}
	rep.callsPerOp = float64(callerCalls) / n
	if writes > 0 {
		rep.legsPerWrite = float64(legs) / float64(writes)
	}
	return rep
}

// writeFile writes the spans as JSON: one array per span,
// [kind, start_ns, end_ns, parent, write], parent being an index into the
// same list, -1 for none and -2 for a dropped ambiguous join.
func (t *tracer) writeFile(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"kinds":[`, workload, seed)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"fields":["kind","start_ns","end_ns","parent","write"],"spans":[`)
	var b []byte
	for i, s := range t.recorded() {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n', '[')
		b = strconv.AppendInt(b, int64(s.kind), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		if s.write {
			b = append(b, ",1]"...)
		} else {
			b = append(b, ",0]"...)
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	// Sync, so that writing the file back is paid for here and not by
	// whatever runs next on the machine.
	if err := errors.Join(w.Flush(), f.Sync()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
