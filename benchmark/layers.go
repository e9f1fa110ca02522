package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/novoht"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Layer-alone rows: each layer's public functions called directly, with no
// other layer in the way, at fixed op counts. They bound what a layer can
// cost inside a client call and give a change to one layer a number that
// moves even when the end-to-end share is small.

// layerRow is one measurement. Rows named *_ns report nanoseconds per op
// from one goroutine; rows named *_ops_per_s report throughput from one
// goroutine per worker.
type layerRow struct {
	name   string
	unit   string
	value  float64
	allocs float64 // heap allocations per op
	bytes  float64 // heap bytes per op
}

const layerReps = 3

// timeOps runs fn(n) layerReps times and returns the median ns/op, and
// heap allocations and bytes per op from runtime.MemStats deltas over all
// the repetitions.
func timeOps(n int, fn func(n int)) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	per := make([]float64, layerReps)
	runtime.ReadMemStats(&before)
	for r := range per {
		t0 := now()
		fn(n)
		per[r] = float64(now()-t0) / float64(n)
	}
	runtime.ReadMemStats(&after)
	total := float64(n * layerReps)
	return median(per), float64(after.Mallocs-before.Mallocs) / total, float64(after.TotalAlloc-before.TotalAlloc) / total
}

func measureNs(name string, n int, fn func(n int)) layerRow {
	ns, a, b := timeOps(n, fn)
	return layerRow{name: name, unit: "ns", value: ns, allocs: a, bytes: b}
}

// measurePar runs fn(worker, n) on every worker at once and reports total
// ops per second.
func measurePar(name string, workers, n int, fn func(worker, n int)) layerRow {
	ns, a, b := timeOps(n*workers, func(int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w, n)
			}(w)
		}
		wg.Wait()
	})
	return layerRow{name: name, unit: "1/s", value: 1e9 / ns, allocs: a, bytes: b}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink atomic.Uint64

// layerRows measures every layer alone. dir is scratch space for the WAL
// row; div divides every op count (1 outside tests).
func layerRows(names []string, workers int, dir string, div int) ([]layerRow, error) {
	var rows []layerRow
	nsRow := func(name string, n int, fn func(n int)) layerRow { return measureNs(name, n/div, fn) }
	parRow := func(name string, workers, n int, fn func(worker, n int)) layerRow {
		return measurePar(name, workers, n/div, fn)
	}
	val := insertRecord(make([]byte, valueLen), 0, 0, 1)
	key := func(i int) string { return names[i%len(names)] }

	// hashing, ring: the client's routing decision.
	hash := hashing.ByName("")
	rows = append(rows, nsRow("hashing.hash_ns", 2_000_000, func(n int) {
		var sum uint64
		for i := 0; i < n; i++ {
			sum += hash(key(i))
		}
		sink.Add(sum)
	}))
	members := make([]ring.Instance, numInstances)
	for i := range members {
		members[i] = ring.Instance{ID: ring.InstanceID(fmt.Sprint("zht-", i)), Addr: fmt.Sprint("addr-", i)}
	}
	table, err := ring.New(numPartitions, members)
	if err != nil {
		return nil, err
	}
	rows = append(rows, nsRow("ring.lookup_ns", 2_000_000, func(n int) {
		var sum uint64
		for i := 0; i < n; i++ {
			sum += uint64(len(table.Lookup(uint64(i) * 0x9e3779b97f4a7c15).Addr))
		}
		sink.Add(sum)
	}))

	// wire: single-message and 64-op batch codec, pooled as the
	// transports use it.
	req := &wire.Request{Op: wire.OpInsert, Key: key(0), Value: val, Partition: -1}
	enc := wire.EncodeRequest(nil, req)
	rows = append(rows, nsRow("wire.encode_req_ns", 1_000_000, func(n int) {
		buf := wire.GetBuffer()
		for i := 0; i < n; i++ {
			buf = wire.EncodeRequest(buf[:0], req)
		}
		wire.PutBuffer(buf)
	}))
	var decErr firstError
	rows = append(rows, nsRow("wire.decode_req_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			r, err := wire.DecodeRequestPooled(enc)
			if err != nil {
				decErr.set(err)
				return
			}
			wire.PutRequest(r)
		}
	}))
	reqs := make([]*wire.Request, 64)
	for i := range reqs {
		reqs[i] = &wire.Request{Op: wire.OpInsert, Key: key(i), Value: val, Partition: -1}
	}
	encOps := wire.EncodeOps(nil, reqs)
	rows = append(rows, nsRow("wire.encode_ops64_ns", 20_000, func(n int) {
		buf := wire.GetBuffer()
		for i := 0; i < n; i++ {
			buf = wire.EncodeOps(buf[:0], reqs)
		}
		wire.PutBuffer(buf)
	}))
	rows = append(rows, nsRow("wire.decode_ops64_ns", 20_000, func(n int) {
		for i := 0; i < n; i++ {
			rs, err := wire.DecodeOps(encOps)
			if err != nil {
				decErr.set(err)
				return
			}
			wire.ReleaseOps(rs)
		}
	}))
	if decErr.err != nil {
		return nil, decErr.err
	}

	// novoht: one partition store, in memory and on an async WAL.
	const storeKeys = 100_000
	var storeErr firstError
	openStore := func(path string) (storage.KV, error) {
		s, err := novoht.Open(novoht.Options{Path: path})
		if err != nil {
			return nil, err
		}
		for i := 0; i < storeKeys; i++ {
			if err := s.Put(key(i), val); err != nil {
				s.Close()
				return nil, err
			}
		}
		return s, nil
	}
	put := func(s storage.KV) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := s.Put(key(i%storeKeys), val); err != nil {
					storeErr.set(err)
					return
				}
			}
		}
	}
	get := func(s storage.KV, stride int) func(n int) {
		return func(n int) {
			var sum uint64
			for i := 0; i < n; i++ {
				v, _, err := s.Get(key(i * stride % storeKeys))
				if err != nil {
					storeErr.set(err)
					return
				}
				sum += uint64(len(v))
			}
			sink.Add(sum)
		}
	}
	mem, err := openStore("")
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		nsRow("novoht.get_ns", 300_000, get(mem, 7)),
		nsRow("novoht.put_mem_ns", 100_000, put(mem)),
		parRow("novoht.get_par_ops_per_s", workers, 300_000, func(w, n int) { get(mem, 7+2*w)(n) }),
	)
	mem.Close()
	walPath := filepath.Join(dir, "layer-novoht.log")
	wal, err := openStore(walPath)
	if err != nil {
		return nil, err
	}
	rows = append(rows, nsRow("novoht.put_wal_ns", 100_000, put(wal)))
	if err := errors.Join(wal.Close(), os.Remove(walPath)); err != nil {
		return nil, err
	}
	if storeErr.err != nil {
		return nil, storeErr.err
	}

	// transport: a handler that echoes a 132-byte value, over each
	// transport.
	echo := func(r *wire.Request) *wire.Response {
		// The request is recycled when the handler returns: echo a copy.
		return &wire.Response{Status: wire.StatusOK, Value: append([]byte(nil), r.Value...)}
	}
	var callErr firstError
	calls := func(c transport.Caller, addr string) func(n int) {
		return func(n int) {
			var sum uint64
			for i := 0; i < n; i++ {
				resp, err := c.Call(addr, req)
				if err != nil {
					callErr.set(err)
					return
				}
				sum += uint64(len(resp.Value))
			}
			sink.Add(sum)
		}
	}
	inproc := transport.NewRegistry()
	inprocSrv, err := inproc.Listen("echo", echo)
	if err != nil {
		return nil, err
	}
	rows = append(rows, nsRow("transport.inproc_echo_ns", 100_000, calls(inproc.NewClient(), "echo")))
	inprocSrv.Close()

	tcpSrv, err := transport.ListenTCP("127.0.0.1:0", echo, transport.EventDriven)
	if err != nil {
		return nil, err
	}
	tcp := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	rows = append(rows,
		nsRow("transport.tcp_echo_ns", 10_000, calls(tcp, tcpSrv.Addr())),
		parRow("transport.tcp_echo_par_ops_per_s", workers, 10_000, func(_, n int) { calls(tcp, tcpSrv.Addr())(n) }),
	)
	tcp.Close()
	tcpSrv.Close()

	udpSrv, err := transport.ListenUDP("127.0.0.1:0", echo)
	if err != nil {
		return nil, err
	}
	udp := transport.NewUDPClient(transport.UDPClientOptions{})
	rows = append(rows, nsRow("transport.udp_echo_ns", 10_000, calls(udp, udpSrv.Addr())))
	udp.Close()
	udpSrv.Close()
	if callErr.err != nil {
		return nil, callErr.err
	}

	// core: Instance.Handle called directly, no transport — the dispatch,
	// the lock ladder and the store under it.
	solo, err := ring.New(numPartitions, members[:1])
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(core.Config{NumPartitions: numPartitions}, members[0], solo, inproc.NewClient())
	if err != nil {
		return nil, err
	}
	var handleErr firstError
	handle := func(op wire.Op, stride int) func(n int) {
		return func(n int) {
			r := &wire.Request{Op: op, Partition: -1}
			if op == wire.OpInsert {
				r.Value = val
			}
			for i := 0; i < n; i++ {
				r.Key = key(i * stride % storeKeys)
				resp := inst.Handle(r)
				if resp.Status != wire.StatusOK {
					handleErr.set(fmt.Errorf("Instance.Handle %v %s: %v %s", op, r.Key, resp.Status, resp.Err))
					return
				}
				wire.PutResponse(resp)
			}
		}
	}
	handle(wire.OpInsert, 1)(storeKeys)
	rows = append(rows,
		nsRow("core.handle_get_ns", 100_000, handle(wire.OpLookup, 7)),
		nsRow("core.handle_put_ns", 100_000, handle(wire.OpInsert, 7)),
		parRow("core.handle_par_ops_per_s", workers, 100_000, func(w, n int) {
			handle([]wire.Op{wire.OpLookup, wire.OpInsert}[w%2], 7+2*w)(n)
		}),
	)
	if err := inst.Close(); err != nil {
		return nil, err
	}
	if handleErr.err != nil {
		return nil, handleErr.err
	}

	// tenant: the admission decision and the TTL envelope.
	tenants := tenant.NewRegistry()
	if err := tenants.Register(tenant.Tenant{Name: cacheTenant, Rate: cacheRate, Burst: cacheRate}); err != nil {
		return nil, err
	}
	adm := tenant.NewAdmission(tenants, tenant.AdmissionOptions{})
	nsKey := tenant.Prefix(cacheTenant, key(0))
	shed := 0
	rows = append(rows, nsRow("tenant.admit_ns", 500_000, func(n int) {
		for i := 0; i < n; i++ {
			release, _, ok := adm.Admit(nsKey, valueLen)
			if !ok {
				shed++
				continue
			}
			release()
		}
	}))
	if shed > 0 {
		return nil, fmt.Errorf("tenant.admit_ns: %d requests shed by a quota meant never to shed", shed)
	}
	expiry := time.Now().Add(cacheTTL)
	rows = append(rows, nsRow("tenant.wrap_unwrap_ns", 500_000, func(n int) {
		var sum uint64
		for i := 0; i < n; i++ {
			v, _, _, _ := tenant.Unwrap(tenant.Wrap(val, 0, expiry))
			sum += uint64(len(v))
		}
		sink.Add(sum)
	}))
	return rows, nil
}

// firstError keeps the first error set from any goroutine; read err once
// the goroutines are done.
type firstError struct {
	once sync.Once
	err  error
}

func (f *firstError) set(err error) { f.once.Do(func() { f.err = err }) }
