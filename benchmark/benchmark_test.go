package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"zht/internal/loadgen"
)

func TestStreamFollowsSeed(t *testing.T) {
	wl := findWorkload("inproc-parallel-zipf")
	build := func(seed int64) []genOp {
		t.Helper()
		s, err := buildStream(wl.mix, wl.dist(1000), streamSeed(seed, 1, 0), 1, 2, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := build(7), build(7), build(8)
	if !slices.Equal(a, b) {
		t.Error("equal seeds gave different streams")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same stream")
	}
	for _, op := range a {
		if op.kind != loadgen.OpLookup && owner(int(op.key), 2) != 1 {
			t.Fatalf("worker 1 writes key %d, which worker %d owns", op.key, owner(int(op.key), 2))
		}
	}
}

func TestCheckValue(t *testing.T) {
	const key, workers = 11, 2
	w := owner(key, workers)
	val := slices.Clone(insertRecord(make([]byte, valueLen), w, key, 5))
	val = append(val, appendRecord(make([]byte, recHdr), w, key, 9)...)
	if err := checkValue(val, key, workers, &keyState{seq: 9, nrec: 2}); err != nil {
		t.Errorf("good value rejected: %v", err)
	}
	if err := checkValue(val, key, workers, nil); err != nil {
		t.Errorf("good value rejected without a model: %v", err)
	}
	bad := map[string]struct {
		val  []byte
		key  int
		want *keyState
	}{
		"stale":          {val, key, &keyState{seq: 12, nrec: 2}},
		"lost append":    {val[:valueLen], key, &keyState{seq: 9, nrec: 2}},
		"other key":      {val, key + workers, nil},
		"other writer":   {insertRecord(make([]byte, valueLen), w+1, key, 5), key, nil},
		"truncated":      {val[:valueLen+3], key, nil},
		"empty":          {nil, key, nil},
		"corrupt filler": {append(slices.Clone(val[:valueLen-1]), 0), key, nil},
		"seq order":      {append(slices.Clone(val), appendRecord(make([]byte, recHdr), w, key, 9)...), key, nil},
	}
	for name, c := range bad {
		if checkValue(c.val, c.key, workers, c.want) == nil {
			t.Errorf("%s: bad value accepted", name)
		}
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{10000, 0.99, 9899}, // rank ceil(0.99n)-1, 100 samples beyond
		{1000, 0.99, 989},   // exactly ten beyond
		{500, 0.99, 489},    // stepped down: the 99th percentile would leave 5
		{100, 0.99, 89},
		{15, 0.99, 7}, // nothing has ten beyond: the median
		{1, 0.99, 0},
		{1000, 0.50, 499},
		{4, 0.50, 1},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func repeat(v uint32, n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestMetricsAreMediansOverSlices(t *testing.T) {
	var r passResult
	r.window = 10 // ten slices of one second
	for s := 0; s < numSlices; s++ {
		// Slice s: every call takes (s+1) µs, and 100*(s+1) ops complete.
		r.lat[classRead][s] = repeat(uint32(s+1)*1000, 50)
		r.opsBySlice[s] = int64(100 * (s + 1))
	}
	r.lat[classRead][9] = repeat(1_000_000, 50) // one slice hit by a stall
	if got, n := r.latencyUs(classRead, 0.5); got != 5.5 || n != 500 {
		t.Errorf("latencyUs = %g over %d samples, want 5.5 over 500", got, n)
	}
	if got, n := r.latencyUs(classWrite, 0.5); got != 0 || n != 0 {
		t.Errorf("latencyUs of an empty class = %g over %d", got, n)
	}
	if got := r.opsPerSecond(); got != 550 {
		t.Errorf("opsPerSecond = %g, want 550", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{start: 110, end: 150}}, 60},
		{"disjoint", []span{{start: 160, end: 170}, {start: 110, end: 120}}, 80},
		{"overlapping", []span{{start: 110, end: 150}, {start: 130, end: 170}}, 40},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"clipped", []span{{start: 90, end: 120}, {start: 180, end: 250}}, 60},
	} {
		if got, covered := selfTime(parent, c.children); got != c.want || covered != 100-c.want {
			t.Errorf("%s: self time %d covered %d, want %d and %d", c.name, got, covered, c.want, 100-c.want)
		}
	}
}

func TestJoin(t *testing.T) {
	a, b := fpKey("a"), fpKey("b")
	at := fpAddr("addr-0")
	tr := newTracer(64)
	// Two client calls in flight at once on different keys, each with its
	// caller.call and handler; then two on the same key, whose handlers
	// cannot be told apart.
	for _, s := range []span{
		{kind: spanClientOp, start: 0, end: 100, down: a},
		{kind: spanClientOp, start: 5, end: 120, down: b},
		{kind: spanCallerCall, start: 10, end: 90, up: a, down: a ^ at},
		{kind: spanCallerCall, start: 15, end: 110, up: b, down: b ^ at},
		{kind: spanHandler, start: 30, end: 60, up: a ^ at, down: a},
		{kind: spanHandler, start: 35, end: 70, up: b ^ at, down: b},

		{kind: spanClientOp, start: 200, end: 300, down: a},
		{kind: spanClientOp, start: 205, end: 320, down: a},
		{kind: spanCallerCall, start: 210, end: 290, up: a, down: a ^ at},
		{kind: spanHandler, start: 230, end: 260, up: a ^ at, down: a},

		{kind: spanLegCall, start: 400, end: 420, up: a}, // an async leg: nothing in flight
	} {
		tr.add(s)
	}
	st, tainted := tr.join()
	spans := tr.recorded()
	parents := make([]int32, len(spans))
	for i, s := range spans {
		parents[i] = s.parent
	}
	// The second pair's caller.call fits both client calls; its handler
	// then has one candidate (the caller.call) but no root to reach.
	want := []int32{noParent, noParent, 0, 1, 2, 3, noParent, noParent, ambiguous, 8, noParent}
	if !slices.Equal(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	if st.ambiguous != 1 || st.orphans != 1 || !tainted[6] || !tainted[7] || len(tainted) != 2 {
		t.Errorf("stats %+v tainted %v, want 1 ambiguous, 1 orphan, roots 6 and 7 tainted", st, tainted)
	}

	rep := tr.analyse(false)
	if rep.calls != 2 {
		t.Fatalf("analysed %d calls, want the 2 untainted ones", rep.calls)
	}
	// Call a: 100 = 20 client + 50 transport + 30 instance; call b: 115 =
	// 20 client + 60 transport + 35 instance.
	wantSelf := [numLayers]float64{layerClient: 0.020, layerTransport: 0.055, layerInstance: 0.0325}
	if rep.selfUs != wantSelf {
		t.Errorf("self times %v, want %v", rep.selfUs, wantSelf)
	}
	var sum float64
	for l := layer(0); l < numLayers; l++ {
		sum += rep.share(l)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestConcurrentChildrenShareTheirCover(t *testing.T) {
	k := fpKey("k")
	a0, a1 := fpAddr("addr-0"), fpAddr("addr-1")
	tr := newTracer(16)
	// A quorum read: two caller.calls at once, [10,60] and [20,90], cover
	// 80 ns with 120 ns of duration between them.
	tr.add(span{kind: spanClientOp, start: 0, end: 100, down: k})
	tr.add(span{kind: spanCallerCall, start: 10, end: 60, up: k, down: k ^ a0})
	tr.add(span{kind: spanCallerCall, start: 20, end: 90, up: k, down: k ^ a1})
	tr.add(span{kind: spanHandler, start: 30, end: 40, up: k ^ a0, down: k})
	tr.add(span{kind: spanHandler, start: 30, end: 60, up: k ^ a1, down: k})
	rep := tr.analyse(false)
	// client 20; the calls' subtrees scale by 80/120: transport
	// (40+40)*2/3, instance (10+30)*2/3.
	want := [numLayers]float64{layerClient: 20, layerTransport: 80 * 2.0 / 3, layerInstance: 40 * 2.0 / 3}
	var sum float64
	for l, w := range want {
		if got := rep.selfUs[l] * 1e3; got < w-1e-6 || got > w+1e-6 {
			t.Errorf("%s self %g ns, want %g", layerNames[l], got, w)
		}
		sum += rep.selfUs[l] * 1e3
	}
	if sum < 99.999 || sum > 100.001 || rep.callsPerOp != 2 {
		t.Errorf("layers sum to %g ns of a 100 ns call; %g calls per op", sum, rep.callsPerOp)
	}
}

func TestJoinBatchBySetAndEnvelope(t *testing.T) {
	k1, k2, k3 := fpKey("k1"), fpKey("k2"), fpKey("k3")
	at := fpAddr("addr-1")
	env := fpEnvelope([]byte("envelope bytes"))
	tr := newTracer(16)
	tr.add(span{kind: spanClientOp, start: 0, end: 100, set: tr.addSet([]uint64{k1, k2})})
	tr.add(span{kind: spanClientOp, start: 1, end: 100, set: tr.addSet([]uint64{k3})})
	tr.add(span{kind: spanCallerCall, start: 10, end: 90, up: k2, down: env ^ at})
	tr.add(span{kind: spanHandler, start: 20, end: 80, up: env ^ at})
	tr.join()
	if s := tr.recorded(); s[2].parent != 0 || s[3].parent != 2 {
		t.Errorf("batch caller.call joined to %d and its handler to %d, want 0 and 2", s[2].parent, s[3].parent)
	}
}

// smokeOptions makes a run small enough for go test: a few thousand keys,
// a fraction of a second, and a fiftieth of the layer-alone op counts.
func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 3, seconds: 0.3, warmup: 0.05, trace: trace, out: t.TempDir(), keys: 4000, setups: 1, layerDiv: 50}
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(wl, smokeOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d ops failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			checkMetrics(t, res, endToEnd)
			for _, m := range res.metrics {
				if m.value <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestEveryWorkloadTraces(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(wl, smokeOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d ops failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			checkMetrics(t, res, perLayer)
			var selfSum float64
			for _, n := range []string{"client", "transport", "instance", "replica.leg", "gateway", "gateway.hop", "tenant"} {
				name := n + ".self_us"
				if n == "replica.leg" || n == "gateway.hop" {
					name = n + "_us"
				}
				selfSum += res.get(name)
			}
			if call := res.get("client.op_us"); call <= 0 || selfSum < 0.98*call || selfSum > 1.02*call {
				t.Errorf("self times sum to %g us of a %g us call", selfSum, call)
			}
			if res.get("transport.self_us") <= 0 || res.get("instance.self_us") <= 0 {
				t.Error("no transport or instance time was attributed: the join failed")
			}
			if wl.gateway && (res.get("gateway.self_us") <= 0 || res.get("tenant.self_us") <= 0) {
				t.Error("gateway workload attributed no time to the gateway or the admission hook")
			}
			if wl.replicas > 0 && res.get("legs_per_write") < 0.9 {
				t.Errorf("legs_per_write = %g with %d replica", res.get("legs_per_write"), wl.replicas)
			}
			if wl.durable && res.get("restart_s") <= 0 {
				t.Error("durable workload reported no restart time")
			}
		})
	}
}

// checkMetrics requires res to hold exactly the metrics of defs, in order.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var got, want []string
	for _, m := range res.metrics {
		got = append(got, m.name+" "+m.unit)
	}
	for _, d := range defs {
		want = append(want, d.Name+" "+d.Unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("metrics\n %v\nwant\n %v", got, want)
	}
}

// BENCHMARK.json is written by hand for the driver; the program's tables
// are what actually runs. They must say the same thing.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n %v\n %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n %v\n %v", doc.PerLayer, perLayer)
	}
}
