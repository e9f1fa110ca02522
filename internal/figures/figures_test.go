package figures

import (
	"strconv"
	"strings"
	"testing"
)

// The figures suite runs in Quick mode here; these tests assert the
// structural claims each figure makes (who wins, what grows), not
// absolute numbers.

func quick() Options { return Options{Quick: true} }

func parseF(t testing.TB, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x"), " ms")
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig01Shape(t *testing.T) {
	s, err := Fig01GPFS(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) < 5 {
		t.Fatal("too few rows")
	}
	for _, row := range s.Rows {
		if parseF(t, row[2]) <= parseF(t, row[1]) {
			t.Errorf("cores=%s: one-dir (%s) not worse than many-dir (%s)", row[0], row[2], row[1])
		}
	}
	last := s.Rows[len(s.Rows)-1]
	if parseF(t, last[2]) < 10000 {
		t.Errorf("one-dir at 16K cores = %s ms; paper reports ~63,000 ms", last[2])
	}
}

func TestTab01Probes(t *testing.T) {
	s, err := Tab01Features(quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range s.Rows {
		byName[row[0]] = row
	}
	if byName["ZHT (this repo)"][5] != "yes" {
		t.Error("ZHT append probe failed")
	}
	if !strings.HasPrefix(byName["Memcached (memcache)"][5], "no") {
		t.Error("memcache append probe returned yes")
	}
	if !strings.HasPrefix(byName["Cassandra (cassring)"][5], "no") {
		t.Error("cassring append probe returned yes")
	}
	if byName["ZHT (this repo)"][4] != "yes" {
		t.Error("ZHT dynamic membership probe failed")
	}
	if byName["Cassandra (cassring)"][4] != "yes" {
		t.Error("cassring dynamic membership probe failed")
	}
	if !strings.HasPrefix(byName["C-MPI (cmpi/Kademlia)"][5], "no") {
		t.Error("cmpi append probe returned yes")
	}
}

func TestFig04Flat(t *testing.T) {
	s, err := Fig04Partitions(quick())
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, s.Rows[0][1])
	last := parseF(t, s.Rows[len(s.Rows)-1][1])
	// The paper's point: partition count barely affects latency
	// (0.73 → 0.77 ms). Allow generous slack for in-proc noise.
	if last > first*3 && last-first > 0.05 {
		t.Errorf("latency grew %0.3f → %0.3f ms across partition sweep; paper shows flat", first, last)
	}
}

func TestFig05Components(t *testing.T) {
	s, err := Fig05Bootstrap(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		if parseF(t, row[1]) < parseF(t, row[4]) {
			t.Errorf("nodes=%s: partition boot below zht total; model inverted", row[0])
		}
	}
	// Real in-proc bootstrap measured at small scale.
	if s.Rows[0][5] == "-" {
		t.Error("no real bootstrap measurement at 64 nodes")
	}
}

func TestFig06Ordering(t *testing.T) {
	s, readsPerGet, err := fig06(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Structure first, at the largest key count, where the disk stores
	// have outgrown their caches (the paper's regime): every kyoto and
	// bdb lookup goes to disk, no NoVoHT lookup does. This holds under
	// any clock, the race detector's included.
	t.Logf("disk reads per lookup: %v", readsPerGet)
	for _, disk := range []string{"kyoto", "bdb"} {
		if r := readsPerGet[disk]; r < 1 {
			t.Errorf("%s: %.2f disk reads per lookup, want >= 1", disk, r)
		}
	}
	for _, mem := range []string{"novoht", "novolatile"} {
		if r := readsPerGet[mem]; r != 0 {
			t.Errorf("%s: %.2f disk reads per lookup, want 0", mem, r)
		}
	}
	// Then the latency ordering those reads cause, which only a clock
	// free of race instrumentation shows.
	if raceEnabled {
		return
	}
	row := s.Rows[len(s.Rows)-1]
	novo := parseF(t, row[1])
	kyoto := parseF(t, row[3])
	bdbLat := parseF(t, row[4])
	if kyoto < novo {
		t.Errorf("pairs=%s: kyoto (%.2fµs) beat novoht (%.2fµs); disk store should be slower", row[0], kyoto, novo)
	}
	if bdbLat < novo {
		t.Errorf("pairs=%s: bdb (%.2fµs) beat novoht (%.2fµs)", row[0], bdbLat, novo)
	}
}

func TestFig07TransportOrdering(t *testing.T) {
	s, err := Fig07Latency(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		noCache := parseF(t, row[2])
		cache := parseF(t, row[3])
		if noCache <= cache*0.9 {
			t.Errorf("nodes=%s (%s): no-cache (%.3f) not slower than cached (%.3f)", row[0], row[1], noCache, cache)
		}
	}
	// Simulated tail reaches ≈1.1 ms at 8K.
	last := s.Rows[len(s.Rows)-1]
	if v := parseF(t, last[3]); v < 0.8 || v > 1.6 {
		t.Errorf("sim 8K latency = %.3f ms, want ≈1.1", v)
	}
}

func TestFig08ZHTBeatsCassandra(t *testing.T) {
	s, err := Fig08ClusterLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	// At the largest measured scale Cassandra must be clearly slower.
	last := s.Rows[len(s.Rows)-1]
	if parseF(t, last[2]) < parseF(t, last[1])*1.2 {
		t.Errorf("nodes=%s: cassandra (%s ms) not clearly slower than zht (%s ms)", last[0], last[2], last[1])
	}
}

func TestFig10ThroughputGap(t *testing.T) {
	s, err := Fig10ClusterThroughput(quick())
	if err != nil {
		t.Fatal(err)
	}
	last := s.Rows[len(s.Rows)-1]
	gap := parseF(t, last[4])
	if gap <= 0 {
		t.Fatalf("zht/cassandra throughput gap = %.1fx at %s nodes, want a positive ratio", gap, last[0])
	}
	// The gap is a ratio of wall-clock throughputs; under the race
	// detector the instrumentation's overhead, not the two designs,
	// decides it.
	if raceEnabled {
		return
	}
	if gap < 1.3 {
		t.Errorf("zht/cassandra throughput gap = %.1fx at %s nodes; paper shows ~7x at 64", gap, last[0])
	}
}

func TestFig11Declines(t *testing.T) {
	s, err := Fig11Efficiency(quick())
	if err != nil {
		t.Fatal(err)
	}
	prev := 101.0
	for _, row := range s.Rows {
		e := parseF(t, row[2])
		if e > prev {
			t.Errorf("efficiency increased at %s nodes", row[0])
		}
		prev = e
	}
	if first := parseF(t, s.Rows[0][2]); first < 99 {
		t.Errorf("2-node efficiency = %v%%, want 100%%", first)
	}
	if last := parseF(t, s.Rows[len(s.Rows)-1][2]); last > 25 {
		t.Errorf("1M-node efficiency = %v%%, want near paper's 8%%", last)
	}
}

func TestFig12SyncWorseThanAsync(t *testing.T) {
	s, err := Fig12Replication(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		async := strings.Split(row[6], "/")
		syncv := strings.Split(row[7], "/")
		if parseF(t, syncv[0]) <= parseF(t, async[0]) {
			t.Errorf("nodes=%s: sim sync r1 (%s) not above async (%s)", row[0], syncv[0], async[0])
		}
	}
}

func TestFig13And14Tradeoff(t *testing.T) {
	s13, err := Fig13InstancesLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s13.Rows {
		if parseF(t, row[4]) <= parseF(t, row[1]) {
			t.Errorf("nodes=%s: 8/node latency not above 1/node", row[0])
		}
	}
	s14, err := Fig14InstancesThroughput(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s14.Rows {
		if parseF(t, row[3]) <= parseF(t, row[1]) {
			t.Errorf("nodes=%s: 4/node throughput not above 1/node", row[0])
		}
	}
}

func TestFig15JoinsComplete(t *testing.T) {
	s, err := Fig15Migration(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) < 2 {
		t.Fatalf("only %d doubling rows", len(s.Rows))
	}
	for _, row := range s.Rows {
		if row[2] != "yes" {
			t.Errorf("transition %s: client ops failed during join", row[0])
		}
	}
}

func TestFig16FusionFSWins(t *testing.T) {
	s, err := Fig16FusionFS(quick())
	if err != nil {
		t.Fatal(err)
	}
	last := s.Rows[len(s.Rows)-1]
	if parseF(t, last[3]) < 2 {
		t.Errorf("GPFS/FusionFS ratio at %s nodes = %s; FusionFS should win clearly", last[0], last[3])
	}
}

func TestFig17Runs(t *testing.T) {
	s, err := Fig17IStore(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(s.Rows))
	}
	// Smaller files must be more metadata-intensive: higher
	// chunks/sec than the largest size at the same node count.
	first := parseF(t, s.Rows[0][3])
	lastSameNodes := parseF(t, s.Rows[2][3])
	if first < lastSameNodes {
		t.Errorf("small-file chunk rate (%.0f) below large-file rate (%.0f)", first, lastSameNodes)
	}
}

func TestFig18MatrixScalesFalkonSaturates(t *testing.T) {
	s, err := Fig18Matrix(quick())
	if err != nil {
		t.Fatal(err)
	}
	first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
	mGrowth := parseF(t, last[1]) / parseF(t, first[1])
	fGrowth := parseF(t, last[2]) / parseF(t, first[2])
	if fGrowth > 1.6 {
		t.Errorf("falkon grew %.1fx with workers; centralized baseline should saturate", fGrowth)
	}
	if parseF(t, last[1]) < parseF(t, last[2]) {
		t.Errorf("matrix (%s) below falkon (%s) at %s workers", last[1], last[2], last[0])
	}
	_ = mGrowth
}

// TestFig19MatrixMoreEfficient checks Figure 19's counted shape: one
// row per task duration, each efficiency in (0, 100]. Which scheduler
// wins is a wall-clock ratio, gated by BenchmarkFig19MatrixEfficiency.
func TestFig19MatrixMoreEfficient(t *testing.T) {
	// A nil error means both schedulers ran every task of every row.
	s, err := Fig19MatrixEfficiency(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("%d task durations measured, want 4", len(s.Rows))
	}
	for _, row := range s.Rows {
		m, f := parseF(t, row[1]), parseF(t, row[2])
		if m <= 0 || m > 100 || f <= 0 || f > 100 {
			t.Errorf("task %s: efficiencies matrix %.0f%%, falkon %.0f%% outside (0, 100]", row[0], m, f)
		}
	}
}

// BenchmarkFig19MatrixEfficiency is Figure 19's wall-clock gate (`make
// bench-smoke`): on the Quick rows, MATRIX's efficiency must beat
// Falkon's and reach 50 % at every task duration (paper: 92–97 %
// against 18–82 %). Both are wall-clock ratios, so this is a
// benchmark, not a test: `go test ./...` never times them under CPU
// contention. It reports the lowest MATRIX efficiency and the
// narrowest lead over Falkon, in percentage points, and logs the task
// duration of that narrowest row, so a red run names the row that
// flipped.
func BenchmarkFig19MatrixEfficiency(b *testing.B) {
	if raceEnabled {
		b.Skip("the race detector's overhead, not the schedulers' design, decides wall-clock ratios")
	}
	for i := 0; i < b.N; i++ {
		s, err := Fig19MatrixEfficiency(quick())
		if err != nil {
			b.Fatal(err)
		}
		minM, lead, narrowest := 100.0, 100.0, s.Rows[0]
		for _, row := range s.Rows {
			m, f := parseF(b, row[1]), parseF(b, row[2])
			if minM = min(minM, m); m-f < lead {
				lead, narrowest = m-f, row
			}
			if m <= f {
				b.Errorf("task %s: matrix eff %.0f%% not above falkon %.0f%%", row[0], m, f)
			}
			if m < 50 {
				b.Errorf("task %s: matrix eff %.0f%% too low (paper: 92-97%%)", row[0], m)
			}
		}
		b.Logf("narrowest lead: task %s, matrix eff %s vs falkon %s", narrowest[0], narrowest[1], narrowest[2])
		b.ReportMetric(minM, "min-matrix-eff-%")
		b.ReportMetric(lead, "min-lead-pts")
	}
}

func TestCSVEscaping(t *testing.T) {
	s := &Series{
		ID:         "figXX",
		Columns:    []string{"plain", "with,comma", "with\"quote"},
		Rows:       [][]string{{"a", "b,c", `d"e`}},
		PaperNotes: []string{"note"},
	}
	got := s.CSV()
	want := "plain,\"with,comma\",\"with\"\"quote\"\na,\"b,c\",\"d\"\"e\"\n# paper: note\n"
	if got != want {
		t.Errorf("CSV escaping:\n got %q\nwant %q", got, want)
	}
}

func TestRenderAndByID(t *testing.T) {
	s, err := Fig11Efficiency(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := s.Render()
	if !strings.Contains(out, "fig11") || !strings.Contains(out, "paper:") {
		t.Errorf("render missing parts:\n%s", out)
	}
	if ByID("fig07") == nil || ByID("tab01") == nil {
		t.Error("ByID missing known figures")
	}
	if ByID("fig99") != nil {
		t.Error("ByID invented a figure")
	}
}
