// Command benchmark is the repository's benchmark: one process boots each
// workload's deployment, drives it in a closed loop, checks every reply,
// and prints every metric by name and unit. BENCHMARK.json at the root of
// the repository records the command, the workloads and the metrics;
// README.md in this directory says how to read and compare them.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, with the share of the
// parent's median by which each may worsen before a change is a regression.
// Latencies are per client call (per batch, in the batch workload), each
// the median over the window's slices of the per-slice percentile;
// ops_per_s counts KV ops (sub-ops, in the batch workload).
//
// The tail metric is p95 and the bounds are what this class of machine can
// hold: on a 2-core VM with client and servers sharing the cores, ten runs
// of one commit usually spread (inter-quartile, over the median) 2-6 % in
// p50 and ops_per_s and 3-7 % in p95, but in a noisy spell on the host 7 %,
// 12 % and 20 %; p99 — a handful of GC and scheduler events per slice —
// spread up to 31 %, which no bound could gate. p99 is still printed,
// ungated.
var endToEnd = []metricDef{
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "read_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// setupReps is how many times a run boots and preloads the deployment;
// setup_s is the median, and the last deployment is the one measured.
const setupReps = 3

type metric struct {
	name, unit string
	value      float64
	note       string // sample count or similar, for the text output
}

// options is what one run needs besides its workload.
type options struct {
	seed    int64
	seconds float64 // measured window
	warmup  float64
	trace   bool
	out     string // directory for traces and WAL data
	keys    int
	setups  int
	// layerDiv divides the layer-alone rows' op counts; 1 outside tests.
	layerDiv int
}

// result is one run of one workload.
type result struct {
	workload          string
	attempted, failed int64
	firstErr          error
	metrics           []metric
	// info is printed in the table but is not part of the result line.
	info []metric
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

func main() {
	var opts options
	name := flag.String("workload", "all", "workload `name`, or all")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated op streams")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured window, cut into ten slices")
	flag.Float64Var(&opts.warmup, "warmup", 2, "`seconds` of unmeasured load before the window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and the layer-alone rows and prints the per-layer metrics")
	flag.StringVar(&opts.out, "out", "benchmark/out", "`directory` for trace files and WAL data")
	aa := flag.Bool("aa", false, "run the untraced set twice and compare the two against each metric's bound")
	flag.Parse()
	opts.trace = *trace != 0
	opts.keys, opts.setups, opts.layerDiv = numKeys, setupReps, 1
	if flag.NArg() > 0 || opts.seconds <= 0 || opts.warmup < 0 || (*aa && opts.trace) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have:", *name)
			for _, w := range workloads {
				fmt.Fprint(os.Stderr, " ", w.name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		selected = []workload{*wl}
	}
	// GOMAXPROCS = nproc, whatever the environment says: the worker count
	// is derived from it.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("zht benchmark: %s nproc=%d GOMAXPROCS=%d workers=%d commit=%s seed=%d seconds=%g warmup=%g trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), numWorkers(), commit(), opts.seed, opts.seconds, opts.warmup, *trace)

	ok := true
	if *aa {
		ok = runAA(selected, opts)
	} else {
		for i := range selected {
			res, err := runWorkload(&selected[i], opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", selected[i].name, err)
				os.Exit(1)
			}
			res.print()
			ok = ok && res.failed == 0
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// numWorkers is the closed-loop client count: one per core, at most two,
// so the load generator never has more threads or connections than cores.
func numWorkers() int { return min(runtime.NumCPU(), 2) }

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the text table and then the machine-readable last line.
func (r *result) print() {
	fmt.Printf("workload %s\n", r.workload)
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range r.info {
		fmt.Printf("  %-34s %14.4f %-5s %s\n", "("+m.name+")", m.value, m.unit, m.note)
	}
	fmt.Printf("  attempted=%d failed=%d fail_ratio=%g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // a NaN or Inf metric
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// runAA runs the untraced set twice back to back and reports, for every
// workload and end-to-end metric, how far the second run is from the first
// relative to the metric's bound. Two runs of the same code that differ by
// more than a bound mean the bound cannot be enforced on this machine.
func runAA(selected []workload, opts options) bool {
	ok := true
	var sets [2][]*result
	for s := range sets {
		for i := range selected {
			res, err := runWorkload(&selected[i], opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", selected[i].name, err)
				return false
			}
			res.print()
			ok = ok && res.failed == 0
			sets[s] = append(sets[s], res)
		}
	}
	fmt.Printf("%-24s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range selected {
		for _, def := range endToEnd {
			a, b := sets[0][i].get(def.Name), sets[1][i].get(def.Name)
			diff := (b - a) / a
			verdict := ""
			if math.Abs(diff) > def.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-24s %-14s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", selected[i].name, def.Name, a, b, 100*diff, 100*def.Bound, verdict)
		}
	}
	return ok
}

// runWorkload runs one workload once: untraced for the end-to-end metrics,
// or traced for the per-layer ones.
func runWorkload(wl *workload, opts options) (*result, error) {
	workers := numWorkers()
	names := keyNames(opts.keys)
	ld, err := newLoad(wl, opts.seed, workers, names)
	if err != nil {
		return nil, err
	}
	res := &result{workload: wl.name}
	if opts.trace {
		err = runTraced(wl, ld, opts, res)
	} else {
		err = runUntraced(wl, ld, opts, res)
	}
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.firstErr = ld.attempted.Load(), ld.failures.Load(), ld.firstErr.err
	return res, nil
}

// system is a booted, preloaded deployment with one session per worker.
type system struct {
	dep     *deployment
	dataDir string
	workers []*worker
}

// bringUp boots the workload's deployment, preloads it and opens the
// workers' sessions.
func bringUp(wl *workload, ld *load, tr *tracer, out string) (*system, error) {
	sys := &system{}
	var err error
	if wl.durable {
		if sys.dataDir, err = newDataDir(out, wl.name); err != nil {
			return nil, err
		}
	}
	if sys.dep, err = boot(wl, tr, sys.dataDir); err != nil {
		sys.tearDown()
		return nil, err
	}
	if err = ld.preload(sys.dep); err != nil {
		sys.tearDown()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for id := 0; id < ld.workers; id++ {
		sess, err := sys.dep.newSession()
		if err != nil {
			sys.tearDown()
			return nil, err
		}
		sys.workers = append(sys.workers, newWorker(ld, id, sess, tr))
	}
	return sys, nil
}

// tearDown closes sessions and deployment and removes the data directory.
func (sys *system) tearDown() error {
	var errs []error
	for _, w := range sys.workers {
		errs = append(errs, w.sess.close())
	}
	sys.workers = nil
	if sys.dep != nil {
		errs = append(errs, sys.dep.close())
	}
	if sys.dataDir != "" {
		errs = append(errs, os.RemoveAll(sys.dataDir))
	}
	return errors.Join(errs...)
}

// restart closes the deployment and boots it again on the same data
// directory, then verifies every key against the writers' models: what was
// acknowledged before the close must be there after it. It returns the
// seconds from starting the boot to finishing the verification.
func (sys *system) restart(wl *workload, ld *load) (float64, error) {
	for _, w := range sys.workers {
		w.sess.close()
	}
	sys.workers = nil
	if err := sys.dep.close(); err != nil {
		return 0, fmt.Errorf("close before restart: %w", err)
	}
	t0 := now()
	dep, err := boot(wl, nil, sys.dataDir)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	sys.dep = dep
	ld.verify(dep)
	return float64(now()-t0) / 1e9, nil
}

func runUntraced(wl *workload, ld *load, opts options, res *result) (err error) {
	var sys *system
	setups := make([]float64, 0, opts.setups)
	for i := 0; i < opts.setups; i++ {
		if sys != nil {
			if err := sys.tearDown(); err != nil {
				return err
			}
			runtime.GC()
		}
		t0 := now()
		if sys, err = bringUp(wl, ld, nil, opts.out); err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	defer func() { err = errors.Join(err, sys.tearDown()) }()
	runPass(sys.workers, opts.warmup)
	pass := runPass(sys.workers, opts.seconds)
	ld.verify(sys.dep)
	if wl.durable {
		if _, err := sys.restart(wl, ld); err != nil {
			return err
		}
	}
	for c, class := range []string{"read", "write"} {
		p50, n := pass.latencyUs(c, 0.50)
		p95, _ := pass.latencyUs(c, 0.95)
		p99, _ := pass.latencyUs(c, 0.99)
		calls := fmt.Sprintf("%d calls", n)
		res.metrics = append(res.metrics,
			metric{name: class + "_p50_us", unit: "us", value: p50, note: calls},
			metric{name: class + "_p95_us", unit: "us", value: p95, note: calls})
		res.info = append(res.info, metric{name: class + "_p99_us", unit: "us", value: p99, note: "not gated: too few events per slice to repeat"})
	}
	res.metrics = append(res.metrics,
		metric{name: "ops_per_s", unit: "1/s", value: pass.opsPerSecond(), note: fmt.Sprintf("%d ops in %.2f s", pass.ops, pass.seconds)},
		metric{name: "setup_s", unit: "s", value: median(setups), note: "boot + preload, " + strings.Trim(fmt.Sprintf("%.3f", setups), "[]")},
	)
	return nil
}
