// Package memcached is ZHT's front door for unmodified cache
// clients: a memcached text-protocol gateway
// (get/gets/set/add/replace/cas/delete/incr/decr/touch/version/stats)
// that maps every command onto the core client API, so anything that
// can speak to memcached — the paper's own baseline, Figures 7–11 —
// can speak to a replicated, durable ZHT deployment instead
// (DESIGN.md §13).
//
// Mapping:
//
//   - Keys are namespaced into the gateway's tenant via
//     tenant.Prefix, so cache traffic cannot collide with native ZHT
//     tenants sharing the table.
//   - Values are stored as tenant envelopes (tenant.Wrap) carrying
//     the client's opaque flags and the command's exptime; reads
//     unwrap. Expiry is enforced by core's lazy-expiry reads and the
//     anti-entropy reaper, not by the gateway.
//   - set→Insert, add→InsertIfAbsent (an expired pair counts as
//     absent), replace→Lookup-then-Insert, delete→Remove.
//   - cas ids are FNV-64a hashes of the stored envelope bytes:
//     gets returns hash(raw), cas re-reads raw, verifies the hash,
//     and swaps via core CasWith(old=raw, new=envelope) — the swap
//     is conditional on the exact bytes the id was minted from, so a
//     racing write yields EXISTS exactly as memcached promises.
//   - incr/decr/touch are read-modify-write loops over the same CAS
//     primitive (memcached guarantees them atomic; the loop retries
//     lost races).
//
// The gateway enforces memcached's own limits (250-byte keys, 1 MiB
// values) at the protocol edge; core itself bounds neither.
package memcached

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"zht/internal/core"
	"zht/internal/metrics"
	"zht/internal/tenant"
)

// Protocol limits, identical to memcached's (and to
// internal/baselines/memcache).
const (
	MaxKeyLen   = 250
	MaxValueLen = 1 << 20
	// relativeExpiryCap is memcached's 30-day threshold: exptime values
	// at or below it are seconds-from-now, larger ones absolute unix
	// seconds.
	relativeExpiryCap = 60 * 60 * 24 * 30
	// casRetries bounds the read-modify-write loops (incr/decr/touch);
	// each retry means another writer won the race, so a handful is
	// plenty outside adversarial churn.
	casRetries = 8
)

// Store is the slice of core.Client the gateway drives; *core.Client
// satisfies it. Errors must use core's vocabulary (ErrNotFound,
// ErrExists, ErrCasMismatch) for the protocol mapping to hold.
type Store interface {
	Insert(key string, val []byte) error
	InsertIfAbsent(key string, val []byte) error
	Lookup(key string) ([]byte, error)
	Remove(key string) error
	Cas(key string, oldVal, newVal []byte) ([]byte, error)
}

// Options configures a Gateway.
type Options struct {
	// Tenant is the namespace cache traffic is scoped to; empty uses
	// the default (un-prefixed) keyspace.
	Tenant string
	// Metrics receives the zht.memcached.* instruments; nil = no-op.
	Metrics *metrics.Registry
}

// gwMetrics are the gateway instruments (OBSERVABILITY.md "Tenancy").
type gwMetrics struct {
	conns  *metrics.Gauge   // zht.memcached.conns
	cmds   *metrics.Counter // zht.memcached.cmds
	hits   *metrics.Counter // zht.memcached.hits
	misses *metrics.Counter // zht.memcached.misses
	errs   *metrics.Counter // zht.memcached.errors
}

// Gateway serves the memcached text protocol over a listener,
// translating each command into core client calls.
type Gateway struct {
	store Store
	opts  Options
	met   gwMetrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a gateway over a store (normally a *core.Client).
func New(store Store, opts Options) *Gateway {
	return &Gateway{
		store: store,
		opts:  opts,
		met: gwMetrics{
			conns:  opts.Metrics.Gauge("zht.memcached.conns"),
			cmds:   opts.Metrics.Counter("zht.memcached.cmds"),
			hits:   opts.Metrics.Counter("zht.memcached.hits"),
			misses: opts.Metrics.Counter("zht.memcached.misses"),
			errs:   opts.Metrics.Counter("zht.memcached.errors"),
		},
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close; it returns the accept
// error after shutdown (net.ErrClosed on a clean Close).
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return net.ErrClosed
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.serveConn(conn)
	}
}

// ListenAndServe listens on a TCP address and serves until Close.
func (g *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.Serve(ln)
}

// Addr returns the gateway's listen address, or "" before Serve.
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Close stops accepting, closes open connections, and waits for
// per-connection goroutines to exit.
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.closed = true
	ln := g.ln
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) serveConn(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		g.met.conns.Dec()
	}()
	// Defense in depth: a panic while parsing one connection's bytes
	// must cost that connection, never the server process (the gateway
	// faces arbitrary remote input).
	defer func() { recover() }()
	g.met.conns.Inc()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		if len(line) == 0 {
			continue
		}
		g.met.cmds.Inc()
		quit, err := g.dispatch(w, r, line)
		if err != nil || quit {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// readLine reads one \r\n-terminated protocol line (tolerating bare
// \n), without the terminator.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// dispatch executes one command line. It returns quit=true when the
// connection should close (quit command), and a non-nil error only
// for connection-fatal conditions (I/O failures).
func (g *Gateway) dispatch(w *bufio.Writer, r *bufio.Reader, line string) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		// A line of pure whitespace passes serveConn's empty check but
		// has no verb; answer ERROR like any unknown command.
		_, err = io.WriteString(w, "ERROR\r\n")
		return false, err
	}
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case "get", "gets":
		return false, g.cmdGet(w, args, cmd == "gets")
	case "set", "add", "replace", "cas":
		return false, g.cmdStore(w, r, cmd, args)
	case "delete":
		return false, g.cmdDelete(w, args)
	case "incr", "decr":
		return false, g.cmdIncrDecr(w, cmd, args)
	case "touch":
		return false, g.cmdTouch(w, args)
	case "version":
		_, err = io.WriteString(w, "VERSION 1.6.0-zht\r\n")
		return false, err
	case "stats":
		return false, g.cmdStats(w)
	case "quit":
		return true, nil
	}
	_, err = io.WriteString(w, "ERROR\r\n")
	return false, err
}

func clientError(w *bufio.Writer, msg string) error {
	_, err := fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", msg)
	return err
}

// serverError reports a failed backend call (routing failure, open
// breaker, timeout, CAS contention) as SERVER_ERROR and counts it
// under zht.memcached.errors — never as a miss, so a backend outage
// cannot masquerade as a cold cache.
func (g *Gateway) serverError(w *bufio.Writer, err error) error {
	g.met.errs.Inc()
	_, werr := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", err)
	return werr
}

// validKey enforces memcached's key grammar: 1..250 bytes, no
// whitespace or control characters (the tenant separator byte is a
// control character, so the reserved namespace cannot be escaped
// from here).
func validKey(key string) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// expiry converts a memcached exptime to an absolute expiry time.
// 0 = never (the zero time); negative = already expired; <= 30 days =
// relative seconds; otherwise absolute unix seconds.
func expiry(exptime int64) time.Time {
	switch {
	case exptime == 0:
		return time.Time{}
	case exptime < 0:
		return time.Now().Add(-time.Second)
	case exptime <= relativeExpiryCap:
		return time.Now().Add(time.Duration(exptime) * time.Second)
	default:
		return time.Unix(exptime, 0)
	}
}

// casID mints the compare-and-swap token for a stored envelope:
// FNV-64a over the raw bytes. Identical bytes yield identical ids,
// which memcached permits (an ABA write is byte-identical data).
func casID(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

func (g *Gateway) cmdGet(w *bufio.Writer, keys []string, withCas bool) error {
	if len(keys) == 0 {
		return clientError(w, "bad command line format")
	}
	for _, key := range keys {
		if !validKey(key) {
			continue // memcached silently skips malformed keys in get
		}
		raw, err := g.store.Lookup(tenant.Prefix(g.opts.Tenant, key))
		if errors.Is(err, core.ErrNotFound) {
			g.met.misses.Inc()
			continue // miss (including lazily-expired pairs): no VALUE line
		}
		if err != nil {
			// Routing failures, open breakers, and timeouts are not
			// misses. SERVER_ERROR aborts the reply (no END), as
			// memcached clients expect.
			return g.serverError(w, err)
		}
		g.met.hits.Inc()
		val, flags, _, _ := tenant.Unwrap(raw)
		if withCas {
			fmt.Fprintf(w, "VALUE %s %d %d %d\r\n", key, flags, len(val), casID(raw))
		} else {
			fmt.Fprintf(w, "VALUE %s %d %d\r\n", key, flags, len(val))
		}
		w.Write(val)
		io.WriteString(w, "\r\n")
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

// cmdStore serves set/add/replace/cas:
//
//	<cmd> <key> <flags> <exptime> <bytes> [<cas id>] [noreply]\r\n
//	<data>\r\n
func (g *Gateway) cmdStore(w *bufio.Writer, r *bufio.Reader, cmd string, args []string) error {
	noreply := len(args) > 0 && args[len(args)-1] == "noreply"
	if noreply {
		args = args[:len(args)-1]
	}
	want := 4
	if cmd == "cas" {
		want = 5
	}
	if len(args) != want {
		return clientError(w, "bad command line format")
	}
	key := args[0]
	flags, err1 := strconv.ParseUint(args[1], 10, 32)
	exptime, err2 := strconv.ParseInt(args[2], 10, 64)
	size, err3 := strconv.ParseInt(args[3], 10, 64)
	var casid uint64
	var err4 error
	if cmd == "cas" {
		casid, err4 = strconv.ParseUint(args[4], 10, 64)
	}
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || size < 0 {
		return clientError(w, "bad command line format")
	}
	reply := func(s string) error {
		if noreply {
			return nil
		}
		_, err := io.WriteString(w, s+"\r\n")
		return err
	}
	// The data block must be consumed even when the command will be
	// rejected — the client sends <size>+2 bytes regardless, and
	// leaving them in the stream would desync the protocol (the
	// block's bytes would be parsed as commands). Oversized blocks are
	// drained rather than buffered, so a hostile size declaration
	// cannot make the gateway allocate.
	if size > MaxValueLen {
		if _, err := io.CopyN(io.Discard, r, size+2); err != nil {
			return err
		}
		return reply("SERVER_ERROR object too large for cache")
	}
	data := make([]byte, size+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	if string(data[size:]) != "\r\n" {
		return clientError(w, "bad data chunk")
	}
	data = data[:size]
	if !validKey(key) {
		return reply("CLIENT_ERROR bad key")
	}
	pkey := tenant.Prefix(g.opts.Tenant, key)
	env := tenant.Wrap(data, uint32(flags), expiry(exptime))
	switch cmd {
	case "set":
		if err := g.store.Insert(pkey, env); err != nil {
			return g.serverError(w, err)
		}
		return reply("STORED")
	case "add":
		err := g.store.InsertIfAbsent(pkey, env)
		if errors.Is(err, core.ErrExists) {
			return reply("NOT_STORED")
		}
		if err != nil {
			return g.serverError(w, err)
		}
		return reply("STORED")
	case "replace":
		// Lookup-then-insert: replace only hits when the key is
		// present (an expired pair reads as absent). The window
		// between read and write can race another writer — memcached
		// on one node serializes this, a distributed table does not;
		// DESIGN.md §13 records the anomaly.
		if _, err := g.store.Lookup(pkey); errors.Is(err, core.ErrNotFound) {
			return reply("NOT_STORED")
		} else if err != nil {
			return g.serverError(w, err)
		}
		if err := g.store.Insert(pkey, env); err != nil {
			return g.serverError(w, err)
		}
		return reply("STORED")
	case "cas":
		raw, err := g.store.Lookup(pkey)
		if errors.Is(err, core.ErrNotFound) {
			return reply("NOT_FOUND")
		}
		if err != nil {
			return g.serverError(w, err)
		}
		if casID(raw) != casid {
			return reply("EXISTS")
		}
		// The swap is conditional on the exact bytes the id was
		// minted from, so a write that slipped in after our read
		// fails the compare server-side.
		if _, err := g.store.Cas(pkey, raw, env); err != nil {
			if errors.Is(err, core.ErrCasMismatch) {
				return reply("EXISTS")
			}
			if errors.Is(err, core.ErrNotFound) {
				return reply("NOT_FOUND")
			}
			return g.serverError(w, err)
		}
		return reply("STORED")
	}
	return clientError(w, "bad command line format")
}

func (g *Gateway) cmdDelete(w *bufio.Writer, args []string) error {
	noreply := len(args) > 0 && args[len(args)-1] == "noreply"
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 1 || !validKey(args[0]) {
		return clientError(w, "bad command line format")
	}
	reply := func(s string) error {
		if noreply {
			return nil
		}
		_, err := io.WriteString(w, s+"\r\n")
		return err
	}
	err := g.store.Remove(tenant.Prefix(g.opts.Tenant, args[0]))
	if errors.Is(err, core.ErrNotFound) {
		return reply("NOT_FOUND")
	}
	if err != nil {
		return g.serverError(w, err)
	}
	return reply("DELETED")
}

// cmdIncrDecr serves incr/decr as a CAS loop: read, parse the stored
// decimal, apply the delta (decr floors at 0, incr wraps at 2^64,
// both per memcached), swap conditional on the bytes read.
func (g *Gateway) cmdIncrDecr(w *bufio.Writer, cmd string, args []string) error {
	noreply := len(args) > 0 && args[len(args)-1] == "noreply"
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 || !validKey(args[0]) {
		return clientError(w, "bad command line format")
	}
	delta, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return clientError(w, "invalid numeric delta argument")
	}
	reply := func(s string) error {
		if noreply {
			return nil
		}
		_, err := io.WriteString(w, s+"\r\n")
		return err
	}
	pkey := tenant.Prefix(g.opts.Tenant, args[0])
	for attempt := 0; attempt < casRetries; attempt++ {
		raw, err := g.store.Lookup(pkey)
		if errors.Is(err, core.ErrNotFound) {
			return reply("NOT_FOUND")
		}
		if err != nil {
			return g.serverError(w, err)
		}
		val, flags, exp, _ := tenant.Unwrap(raw)
		cur, err := strconv.ParseUint(string(val), 10, 64)
		if err != nil {
			return reply("CLIENT_ERROR cannot increment or decrement non-numeric value")
		}
		var next uint64
		if cmd == "incr" {
			next = cur + delta
		} else if delta > cur {
			next = 0
		} else {
			next = cur - delta
		}
		env := tenant.Wrap([]byte(strconv.FormatUint(next, 10)), flags, exp)
		if _, err := g.store.Cas(pkey, raw, env); err != nil {
			if errors.Is(err, core.ErrCasMismatch) {
				continue // another writer won; re-read and retry
			}
			if errors.Is(err, core.ErrNotFound) {
				return reply("NOT_FOUND")
			}
			return g.serverError(w, err)
		}
		return reply(strconv.FormatUint(next, 10))
	}
	return g.serverError(w, errors.New("cas contention"))
}

// cmdTouch rewrites the stored envelope with a new expiry, keeping
// value and flags, conditional on the bytes read (CAS loop).
func (g *Gateway) cmdTouch(w *bufio.Writer, args []string) error {
	noreply := len(args) > 0 && args[len(args)-1] == "noreply"
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 || !validKey(args[0]) {
		return clientError(w, "bad command line format")
	}
	exptime, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return clientError(w, "bad command line format")
	}
	reply := func(s string) error {
		if noreply {
			return nil
		}
		_, err := io.WriteString(w, s+"\r\n")
		return err
	}
	pkey := tenant.Prefix(g.opts.Tenant, args[0])
	for attempt := 0; attempt < casRetries; attempt++ {
		raw, err := g.store.Lookup(pkey)
		if errors.Is(err, core.ErrNotFound) {
			return reply("NOT_FOUND")
		}
		if err != nil {
			return g.serverError(w, err)
		}
		val, flags, _, _ := tenant.Unwrap(raw)
		env := tenant.Wrap(val, flags, expiry(exptime))
		if _, err := g.store.Cas(pkey, raw, env); err != nil {
			if errors.Is(err, core.ErrCasMismatch) {
				continue
			}
			if errors.Is(err, core.ErrNotFound) {
				return reply("NOT_FOUND")
			}
			return g.serverError(w, err)
		}
		return reply("TOUCHED")
	}
	return g.serverError(w, errors.New("cas contention"))
}

func (g *Gateway) cmdStats(w *bufio.Writer) error {
	fmt.Fprintf(w, "STAT curr_connections %d\r\n", g.met.conns.Value())
	fmt.Fprintf(w, "STAT cmd_total %d\r\n", g.met.cmds.Value())
	fmt.Fprintf(w, "STAT get_hits %d\r\n", g.met.hits.Value())
	fmt.Fprintf(w, "STAT get_misses %d\r\n", g.met.misses.Value())
	_, err := io.WriteString(w, "END\r\n")
	return err
}
