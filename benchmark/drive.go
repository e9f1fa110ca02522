package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/core"
	"zht/internal/loadgen"
	"zht/internal/wire"
)

// Calls are timed in two classes, reported separately.
const (
	classRead = iota
	classWrite
	numClasses
)

// numSlices is how many equal slices the measured window is cut into;
// every end-to-end metric is the median of its per-slice values, which
// keeps one scheduling hiccup or GC cycle from moving the result.
const numSlices = 10

// load is what a workload's workers share: the generated ops, the key
// strings and the writers' model of the store.
type load struct {
	wl      *workload
	workers int
	names   []string
	// streams[w][c] is worker w's op stream for class c. Single-op
	// workloads keep their whole mix in class 0's stream; batch
	// workloads have one stream of lookups and one of writes.
	streams [][numClasses][]genOp
	// model[w] is worker w's model of the keys it owns, indexed by
	// key / workers: a slice per writer, so that two writers' entries
	// never share a cache line.
	model [][]keyState
	// failures, attempted count every op issued after preload, whatever
	// the phase; firstErr keeps one example.
	attempted, failures atomic.Int64
	firstErr            firstError
}

func newLoad(wl *workload, seed int64, workers int, names []string) (*load, error) {
	if len(names)%workers != 0 {
		return nil, fmt.Errorf("%d keys do not divide among %d workers", len(names), workers)
	}
	ld := &load{wl: wl, workers: workers, names: names, model: make([][]keyState, workers)}
	for w := range ld.model {
		ld.model[w] = make([]keyState, len(names)/workers)
	}
	ld.streams = make([][numClasses][]genOp, workers)
	reads := loadgen.Mix{Lookup: 1}
	writes := wl.mix
	writes.Lookup = 0
	for w := range ld.streams {
		mixes := [numClasses]loadgen.Mix{classRead: wl.mix}
		if wl.batch > 0 {
			mixes = [numClasses]loadgen.Mix{classRead: reads, classWrite: writes}
		}
		for c, mix := range mixes {
			if mix == (loadgen.Mix{}) {
				continue
			}
			s, err := buildStream(mix, wl.dist(len(names)), streamSeed(seed, w, c), w, workers, streamLen)
			if err != nil {
				return nil, err
			}
			ld.streams[w][c] = s
		}
	}
	return ld, nil
}

// state is the owner's model of key.
func (ld *load) state(key int) *keyState {
	return &ld.model[owner(key, ld.workers)][key/ld.workers]
}

func (ld *load) fail(err error) {
	ld.failures.Add(1)
	ld.firstErr.set(err)
}

// resetModel sets the model to the preloaded state: every key holds one
// insert record with sequence number 1.
func (ld *load) resetModel() {
	for _, m := range ld.model {
		for i := range m {
			m[i] = keyState{seq: 1, nrec: 1}
		}
	}
}

const preloadBatch = 256

// preload inserts every key through Client.Batch, each writer its own keys.
func (ld *load) preload(dep *deployment) error {
	ld.resetModel()
	expiry := time.Now().Add(cacheTTL)
	errs := make([]error, ld.workers)
	var wg sync.WaitGroup
	for w := 0; w < ld.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]core.BatchOp, 0, preloadBatch)
			flush := func() error {
				res, err := dep.client.Batch(ops)
				for _, r := range res {
					err = errors.Join(err, r.Err)
				}
				ops = ops[:0]
				return err
			}
			for k := w; k < len(ld.names); k += ld.workers {
				val := ld.wl.storedValue(insertRecord(make([]byte, valueLen), w, k, 1), expiry)
				ops = append(ops, core.BatchOp{Op: wire.OpInsert, Key: ld.wl.storedKey(ld.names[k]), Value: val})
				if len(ops) == preloadBatch {
					if errs[w] = flush(); errs[w] != nil {
						return
					}
				}
			}
			if len(ops) > 0 {
				errs[w] = flush()
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify re-reads every key through Client.Batch and checks it against its
// writer's model: the last acknowledged value, or absence.
func (ld *load) verify(dep *deployment) {
	var wg sync.WaitGroup
	for w := 0; w < ld.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]core.BatchOp, 0, preloadBatch)
			keys := make([]int, 0, preloadBatch)
			flush := func() {
				res, err := dep.client.Batch(ops)
				ld.attempted.Add(int64(len(ops)))
				for i, k := range keys {
					switch {
					case err != nil:
						ld.fail(fmt.Errorf("verify: %w", err))
					default:
						if e := ld.checkRead(k, w, ld.wl.userValue(res[i].Value), res[i].Err); e != nil {
							ld.fail(fmt.Errorf("verify: %w", e))
						}
					}
				}
				ops, keys = ops[:0], keys[:0]
			}
			for k := w; k < len(ld.names); k += ld.workers {
				ops = append(ops, core.BatchOp{Op: wire.OpLookup, Key: ld.wl.storedKey(ld.names[k])})
				keys = append(keys, k)
				if len(ops) == preloadBatch {
					flush()
				}
			}
			if len(ops) > 0 {
				flush()
			}
		}(w)
	}
	wg.Wait()
}

// checkRead checks the outcome of a lookup of key issued by reader while
// reader had no write in flight.
func (ld *load) checkRead(key, reader int, val []byte, err error) error {
	own := owner(key, ld.workers) == reader
	st := ld.state(key)
	switch {
	case errors.Is(err, core.ErrNotFound):
		if own && st.nrec != 0 {
			return fmt.Errorf("key %d: not found, but write %d was acknowledged", key, st.seq)
		}
		return nil
	case err != nil:
		return fmt.Errorf("key %d: %w", key, err)
	case own && st.nrec == 0:
		return fmt.Errorf("key %d: found after an acknowledged remove", key)
	case own:
		return checkValue(val, key, ld.workers, st)
	}
	return checkValue(val, key, ld.workers, nil)
}

// worker is one closed-loop caller: it waits for each reply before issuing
// the next call, as ZHT's callers (FusionFS metadata ops, MATRIX, the
// paper's micro-benchmark) do.
type worker struct {
	ld   *load
	id   int
	sess session
	tr   *tracer
	pos  [numClasses]int
	seq  uint64
	// readDebt spreads read and write batches in the mix's proportion.
	readDebt float64
	// arena holds the values of one call; ops and keys are its ops, one
	// its result when it is not a batch, fps its fingerprints when traced.
	arena []byte
	ops   []core.BatchOp
	keys  []int
	one   [1]core.BatchResult
	fps   []uint64

	// Per pass.
	lat   [numClasses][]uint32       // call latencies, in issue order
	mark  [numClasses][numSlices]int // len(lat[c]) when each slice began
	done  [numSlices]int64           // KV ops completed, by the slice their call began in
	calls int64

	// written is the key and value bytes of every acknowledged write.
	written int64
	// attempted counts this pass's KV ops; run adds it to the load's
	// total at the end, keeping the shared counter off the hot path.
	attempted int64
}

func newWorker(ld *load, id int, sess session, tr *tracer) *worker {
	n := max(ld.wl.batch, 1)
	return &worker{
		ld: ld, id: id, sess: sess, tr: tr,
		seq:   1, // preload wrote sequence number 1
		arena: make([]byte, n*valueLen),
		ops:   make([]core.BatchOp, 0, n),
		keys:  make([]int, 0, n),
	}
}

func (w *worker) next(class int) genOp {
	s := w.ld.streams[w.id][class]
	op := s[w.pos[class]]
	if w.pos[class]++; w.pos[class] == len(s) {
		w.pos[class] = 0
	}
	return op
}

// prepare draws the next call from the streams into w.ops and w.keys — one
// op, or a batch of one class — and returns its class.
func (w *worker) prepare() (class int) {
	wl := w.ld.wl
	// Single-op workloads keep their whole mix in one stream; the op drawn
	// decides the class. Batch workloads choose the class first.
	class, stream, n := classWrite, classRead, 1
	if wl.batch > 0 {
		if w.readDebt += wl.readFraction(); w.readDebt >= 1 {
			w.readDebt--
			class = classRead
		}
		stream, n = class, wl.batch
	}
	w.ops, w.keys = w.ops[:0], w.keys[:0]
	for i := 0; i < n; i++ {
		op := w.next(stream)
		bop := core.BatchOp{Key: w.ld.names[op.key]}
		buf := w.arena[i*valueLen : (i+1)*valueLen]
		switch op.kind {
		case loadgen.OpLookup:
			bop.Op = wire.OpLookup
		case loadgen.OpInsert:
			w.seq++
			bop.Op, bop.Value = wire.OpInsert, insertRecord(buf, w.id, int(op.key), w.seq)
		case loadgen.OpAppend:
			w.seq++
			bop.Op, bop.Value = wire.OpAppend, appendRecord(buf, w.id, int(op.key), w.seq)
		case loadgen.OpRemove:
			bop.Op = wire.OpRemove
		}
		w.ops = append(w.ops, bop)
		w.keys = append(w.keys, int(op.key))
	}
	if wl.batch == 0 && w.ops[0].Op == wire.OpLookup {
		class = classRead
	}
	return class
}

// issue performs the prepared call and returns one result per op; only
// this is timed.
func (w *worker) issue() ([]core.BatchResult, error) {
	if w.ld.wl.batch > 0 {
		return w.sess.batch(w.ops)
	}
	op, r := w.ops[0], &w.one[0]
	*r = core.BatchResult{}
	switch op.Op {
	case wire.OpLookup:
		r.Value, r.Err = w.sess.lookup(op.Key)
	case wire.OpInsert:
		r.Err = w.sess.insert(op.Key, op.Value)
	case wire.OpAppend:
		r.Err = w.sess.append(op.Key, op.Value)
	case wire.OpRemove:
		r.Err = w.sess.remove(op.Key)
	}
	return w.one[:], nil
}

// settle checks each op's outcome against the model and applies
// acknowledged writes to it, in issue order.
func (w *worker) settle(res []core.BatchResult, err error) {
	ld := w.ld
	w.attempted += int64(len(w.ops))
	if err != nil {
		for range w.ops {
			ld.fail(fmt.Errorf("batch: %w", err))
		}
		return
	}
	for i, op := range w.ops {
		key, err := w.keys[i], res[i].Err
		st := ld.state(key)
		switch op.Op {
		case wire.OpLookup:
			if e := ld.checkRead(key, w.id, res[i].Value, err); e != nil {
				ld.fail(e)
			}
		case wire.OpInsert, wire.OpAppend:
			if err != nil {
				ld.fail(fmt.Errorf("%v key %d: %w", op.Op, key, err))
				continue
			}
			// The record's header carries the sequence number it wrote.
			st.seq, st.nrec = binary.LittleEndian.Uint64(op.Value[8:]), st.nrec+1
			if op.Op == wire.OpInsert {
				st.nrec = 1
			}
			w.written += int64(len(op.Key) + len(op.Value))
		case wire.OpRemove:
			switch {
			case errors.Is(err, core.ErrNotFound):
				if st.nrec != 0 {
					ld.fail(fmt.Errorf("remove key %d: not found, but write %d was acknowledged", key, st.seq))
				}
			case err != nil:
				ld.fail(fmt.Errorf("remove key %d: %w", key, err))
				continue
			case st.nrec == 0:
				ld.fail(fmt.Errorf("remove key %d: removed a key already removed", key))
			}
			*st = keyState{}
		}
	}
}

// run issues calls from start until dur has passed or stop is set.
func (w *worker) run(start, dur int64, stop *atomic.Bool) {
	for c := range w.lat {
		w.lat[c] = w.lat[c][:0]
	}
	w.done, w.calls = [numSlices]int64{}, 0
	slice := -1
	tracing := w.tr != nil && w.tr.on.Load()
	for !stop.Load() {
		class := w.prepare()
		var set int32
		var fp uint64
		if tracing {
			// What the call's spans will be matched on: its key, or for
			// a batch the set of its keys.
			if len(w.keys) == 1 {
				fp = fpKey(w.ops[0].Key)
			} else {
				w.fps = w.fps[:0]
				for _, op := range w.ops {
					w.fps = append(w.fps, fpKey(op.Key))
				}
				set = w.tr.addSet(w.fps)
			}
		}
		t0 := now()
		if t0-start >= dur {
			break
		}
		res, err := w.issue()
		t1 := now()
		for s := int((t0 - start) * numSlices / dur); slice < s; {
			slice++
			for cl := range w.mark {
				w.mark[cl][slice] = len(w.lat[cl])
			}
		}
		w.lat[class] = append(w.lat[class], uint32(min(t1-t0, math.MaxUint32)))
		w.done[slice] += int64(len(w.ops))
		w.calls++
		if tracing {
			w.tr.add(span{kind: spanClientOp, write: class == classWrite, start: t0, end: t1, down: fp, set: set})
			if w.tr.full() {
				stop.Store(true)
			}
		}
		w.settle(res, err)
	}
	for slice++; slice < numSlices; slice++ {
		for cl := range w.mark {
			w.mark[cl][slice] = len(w.lat[cl])
		}
	}
	w.ld.attempted.Add(w.attempted)
	w.attempted = 0
}

// sliceOf returns the latencies of class c that began in slice s.
func (w *worker) sliceOf(c, s int) []uint32 {
	end := len(w.lat[c])
	if s+1 < numSlices {
		end = w.mark[c][s+1]
	}
	return w.lat[c][w.mark[c][s]:end]
}

// passResult is one timed pass over a deployment.
type passResult struct {
	seconds float64 // wall time the workers ran
	calls   int64
	ops     int64
	// lat[c][s] is the sorted call latencies (ns) of class c in slice s;
	// opsBySlice[s] the KV ops completed.
	lat        [numClasses][numSlices][]uint32
	opsBySlice [numSlices]int64
	window     float64 // the window asked for, seconds
}

// runPass drives the deployment with one worker per session for window
// seconds (less if a tracer fills).
func runPass(workers []*worker, window float64) passResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start, dur := now(), int64(window*1e9)
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(start, dur, &stop)
		}(w)
	}
	wg.Wait()
	res := passResult{seconds: float64(now()-start) / 1e9, window: window}
	for _, w := range workers {
		res.calls += w.calls
		for s := 0; s < numSlices; s++ {
			res.opsBySlice[s] += w.done[s]
			res.ops += w.done[s]
			for c := 0; c < numClasses; c++ {
				res.lat[c][s] = append(res.lat[c][s], w.sliceOf(c, s)...)
			}
		}
	}
	for c := range res.lat {
		for s := range res.lat[c] {
			slices.Sort(res.lat[c][s])
		}
	}
	return res
}

// percentile returns the q-quantile of sorted (ascending), stepping down
// to the highest rank that still has at least ten samples beyond it; with
// too few samples for that, it is the median.
func percentile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = min(idx, n-11)
	idx = max(idx, (n-1)/2)
	return float64(sorted[idx])
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// latencyUs is the median over slices of the per-slice q-quantile of class
// c, in microseconds, and the number of samples behind it.
func (r *passResult) latencyUs(c int, q float64) (float64, int) {
	var per []float64
	samples := 0
	for s := range r.lat[c] {
		if n := len(r.lat[c][s]); n > 0 {
			per = append(per, percentile(r.lat[c][s], q)/1e3)
			samples += n
		}
	}
	return median(per), samples
}

// opsPerSecond is the median over slices of KV ops completed per second.
func (r *passResult) opsPerSecond() float64 {
	per := make([]float64, numSlices)
	for s, n := range r.opsBySlice {
		per[s] = float64(n) / (r.window / numSlices)
	}
	return median(per)
}
