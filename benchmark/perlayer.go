package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"

	"zht/internal/metrics"
)

// perLayer lists every per-layer metric a traced run prints, in the order
// BENCHMARK.json lists them: the traced pass's self times and counts, then
// the layer-alone rows. README.md says which end-to-end metric each is
// expected to move, on which workload.
var perLayer = []metricDef{
	// Traced pass. Self times are means per client call (per batch, in the
	// batch workload) over the calls the join could place; they sum to
	// client.op_us.
	{Name: "client.op_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_us", Unit: "us", Better: "lower"},
	{Name: "instance.self_us", Unit: "us", Better: "lower"},
	{Name: "replica.leg_us", Unit: "us", Better: "lower"},
	{Name: "gateway.self_us", Unit: "us", Better: "lower"},
	{Name: "gateway.hop_us", Unit: "us", Better: "lower"},
	{Name: "tenant.self_us", Unit: "us", Better: "lower"},
	{Name: "calls_per_op", Unit: "count", Better: "lower"},
	{Name: "legs_per_write", Unit: "count", Better: "lower"},
	{Name: "failed_calls", Unit: "count", Better: "lower"},
	{Name: "join_dropped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	// Counts from the metrics registry of the traced deployment, over the
	// traced pass.
	{Name: "bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "dials", Unit: "count", Better: "lower"},
	{Name: "wal_commits_per_op", Unit: "count", Better: "lower"},
	{Name: "wal_batch_size", Unit: "count", Better: "higher"},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "restart_s", Unit: "s", Better: "lower"},
	// Layer-alone rows.
	{Name: "hashing.hash_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ops64_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ops64_ns", Unit: "ns", Better: "lower"},
	{Name: "novoht.get_ns", Unit: "ns", Better: "lower"},
	{Name: "novoht.put_mem_ns", Unit: "ns", Better: "lower"},
	{Name: "novoht.get_par_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "novoht.put_wal_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.inproc_echo_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_echo_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_echo_par_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.udp_echo_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_put_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_par_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tenant.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.wrap_unwrap_ns", Unit: "ns", Better: "lower"},
}

// counters is a reading of the registry instruments the traced run reports.
type counters struct {
	bytesOut, bytesIn, dials, walCommits, walBatchSum, walBatchCount int64
}

func readCounters(reg *metrics.Registry) counters {
	batch := reg.Histogram("zht.storage.wal.batch.size")
	return counters{
		bytesOut:      reg.Counter("zht.transport.bytes_out").Value(),
		bytesIn:       reg.Counter("zht.transport.bytes_in").Value(),
		dials:         reg.Counter("zht.transport.dials").Value(),
		walCommits:    reg.Counter("zht.storage.wal.commits").Value(),
		walBatchSum:   batch.Sum(),
		walBatchCount: batch.Count(),
	}
}

// dirSize sums the sizes of the files under dir; 0 for no directory.
func dirSize(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runTraced measures the per-layer metrics: an untraced pass and a traced
// pass of half the window each, on separate deployments so the untraced
// one carries no wrapper and no registry; then the layer-alone rows.
func runTraced(wl *workload, ld *load, opts options, res *result) error {
	half := opts.seconds / 2
	sys, err := bringUp(wl, ld, nil, opts.out)
	if err != nil {
		return err
	}
	runPass(sys.workers, opts.warmup)
	plain := runPass(sys.workers, half)
	ld.verify(sys.dep)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := sys.tearDown(); err != nil {
		return err
	}
	runtime.GC()

	tr := newTracer(traceCap)
	if sys, err = bringUp(wl, ld, tr, opts.out); err != nil {
		return err
	}
	defer sys.tearDown()
	runPass(sys.workers, opts.warmup)
	before := readCounters(sys.dep.reg)
	walBefore, err := dirSize(sys.dataDir)
	if err != nil {
		return err
	}
	userBefore := userBytes(sys.workers)
	tr.on.Store(true)
	traced := runPass(sys.workers, half)
	tr.on.Store(false)
	after := readCounters(sys.dep.reg)
	userWritten := userBytes(sys.workers) - userBefore
	ld.verify(sys.dep)
	var restartS float64
	if wl.durable {
		if restartS, err = sys.restart(wl, ld); err != nil {
			return err
		}
	}
	// The close inside restart flushed every WAL.
	walAfter, err := dirSize(sys.dataDir)
	if err != nil {
		return err
	}
	// Everything that records must have stopped before the spans are read.
	if err := sys.tearDown(); err != nil {
		return err
	}
	rep := tr.analyse(wl.gateway)
	path, err := tr.writeFile(opts.out, wl.name, opts.seed)
	if err != nil {
		return err
	}
	rows, err := layerRows(ld.names, ld.workers, opts.out, opts.layerDiv)
	if err != nil {
		return err
	}

	perOp := func(n int64) float64 { return float64(n) / float64(max(traced.ops, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	share := func(l layer) string { return fmt.Sprintf("%5.1f%% of client.op", 100*rep.share(l)) }
	res.metrics = append(res.metrics,
		metric{"client.op_us", "us", rep.meanCallUs, fmt.Sprintf("%d of %d calls analysed, %d spans in %s", rep.calls, traced.calls, rep.join.spans, path)},
		metric{"client.self_us", "us", rep.selfUs[layerClient], share(layerClient)},
		metric{"transport.self_us", "us", rep.selfUs[layerTransport], share(layerTransport)},
		metric{"instance.self_us", "us", rep.selfUs[layerInstance], share(layerInstance)},
		metric{"replica.leg_us", "us", rep.selfUs[layerReplicaLeg], share(layerReplicaLeg)},
		metric{"gateway.self_us", "us", rep.selfUs[layerGateway], share(layerGateway)},
		metric{"gateway.hop_us", "us", rep.selfUs[layerGatewayHop], share(layerGatewayHop)},
		metric{"tenant.self_us", "us", rep.selfUs[layerTenant], share(layerTenant)},
		metric{"calls_per_op", "count", rep.callsPerOp, "caller.call spans per client call"},
		metric{"legs_per_write", "count", rep.legsPerWrite, "synchronous leg.call spans per write call"},
		metric{"failed_calls", "count", float64(tr.failedCalls.Load()), "transport calls that errored or were shed"},
		metric{"join_dropped_ratio", "ratio", ratio(float64(rep.join.ambiguous), float64(rep.join.spans)),
			fmt.Sprintf("%d ambiguous, %d orphans, %d calls set aside", rep.join.ambiguous, rep.join.orphans, rep.join.tainted)},
		metric{"trace_overhead_ratio", "ratio", ratio(float64(traced.ops)/traced.seconds, float64(plain.ops)/plain.seconds),
			fmt.Sprintf("traced %.0f / untraced %.0f ops/s", float64(traced.ops)/traced.seconds, float64(plain.ops)/plain.seconds)},
		metric{"bytes_out_per_op", "B", perOp(after.bytesOut - before.bytesOut), "transport callers, client and legs"},
		metric{"bytes_in_per_op", "B", perOp(after.bytesIn - before.bytesIn), ""},
		metric{"dials", "count", float64(after.dials), "since boot"},
		metric{"wal_commits_per_op", "count", perOp(after.walCommits - before.walCommits), ""},
		metric{"wal_batch_size", "count", ratio(float64(after.walBatchSum-before.walBatchSum), float64(after.walBatchCount-before.walBatchCount)), "records per commit"},
		metric{"wal_bytes_per_user_byte", "ratio", ratio(float64(walAfter-walBefore), float64(userWritten)), "log growth over key+value bytes written"},
		metric{"peak_heap_mb", "MB", float64(mem.HeapSys) / (1 << 20), "heap obtained from the OS by the end of the untraced pass"},
		metric{"restart_s", "s", restartS, "close, re-bootstrap on the same data directory, re-verify"},
	)
	for _, r := range rows {
		res.metrics = append(res.metrics, metric{r.name, r.unit, r.value, fmt.Sprintf("%.2f allocs/op %.0f B/op", r.allocs, r.bytes)})
	}
	return nil
}

// userBytes is the key and value bytes the workers' acknowledged writes
// carried so far.
func userBytes(workers []*worker) int64 {
	var n int64
	for _, w := range workers {
		n += w.written
	}
	return n
}
