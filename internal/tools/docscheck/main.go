// Command docscheck is the `make docs-check` gate: it keeps the prose
// honest against the code. It fails when
//
//   - any package under internal/ or cmd/ lacks a package comment,
//   - a shell code block in README.md or OBSERVABILITY.md passes a
//     flag to a zht-* binary that the binary does not define, or
//   - a metric name registered anywhere in the source ("zht.*" string
//     literal) is missing from the OBSERVABILITY.md catalogue, or
//   - an exported core.Config field is set only by tests — a knob
//     no binary, example, figure or benchmark sets is a test hook and
//     belongs unexported in internal/core, or
//   - a metric contract is broken: each subsystem in the contracts
//     table — replica repair, membership and migration, the hot-path
//     pools, tunable consistency, and the multi-tenant front door —
//     names its canonical metrics, and each must both be registered
//     in that subsystem's source AND be catalogued in
//     OBSERVABILITY.md, so neither side may silently drop one.
//
// Run from the repository root: go run ./internal/tools/docscheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	checkPackageComments(fail)
	cmdFlags := collectCmdFlags(fail)
	for _, doc := range []string{"README.md", "OBSERVABILITY.md"} {
		checkDocFlags(doc, cmdFlags, fail)
	}
	checkMetricCatalogue(fail)
	checkConfigKnobs(fail)
	for _, c := range contracts {
		checkContract(c, fail)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docs-check:", p)
		}
		os.Exit(1)
	}
	fmt.Println("docs-check: ok")
}

// goSourceDirs yields every directory under the given roots that
// contains at least one non-test .go file.
func goSourceDirs(roots ...string) []string {
	seen := map[string]bool{}
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") {
				return nil
			}
			seen[filepath.Dir(path)] = true
			return nil
		})
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// checkPackageComments requires a godoc package comment on every
// package under internal/ and cmd/ (on any one of its files).
func checkPackageComments(fail func(string, ...any)) {
	for _, dir := range goSourceDirs("internal", "cmd") {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			fail("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				fail("package %s (%s) has no package comment", name, dir)
			}
		}
	}
}

var flagDefRe = regexp.MustCompile(`flag\.(?:Bool|Int64|Int|String|Float64|Duration)\("([^"]+)"`)

// collectCmdFlags parses every cmd/<name>/*.go for flag definitions,
// returning command name → defined flag set.
func collectCmdFlags(fail func(string, ...any)) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		fail("reading cmd/: %v", err)
		return out
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags := map[string]bool{}
		files, _ := filepath.Glob(filepath.Join("cmd", e.Name(), "*.go"))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fail("%s: %v", f, err)
				continue
			}
			for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
				flags[m[1]] = true
			}
		}
		out[e.Name()] = flags
	}
	return out
}

// checkDocFlags scans fenced code blocks in one markdown file; any
// line invoking a zht-* binary may only pass flags that binary
// defines.
func checkDocFlags(doc string, cmdFlags map[string]map[string]bool, fail func(string, ...any)) {
	src, err := os.ReadFile(doc)
	if err != nil {
		fail("%s: %v", doc, err)
		return
	}
	inBlock := false
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		cmd := invokedCommand(line, cmdFlags)
		if cmd == "" {
			continue
		}
		for _, flagName := range flagTokens(line) {
			if !cmdFlags[cmd][flagName] {
				fail("%s:%d: %s has no flag -%s", doc, i+1, cmd, flagName)
			}
		}
	}
}

// invokedCommand returns which cmd/ binary a shell line runs, if any.
// Matching the longest name first keeps zht-server from matching a
// hypothetical zht-serve.
func invokedCommand(line string, cmdFlags map[string]map[string]bool) string {
	names := make([]string, 0, len(cmdFlags))
	for name := range cmdFlags {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	for _, name := range names {
		for _, pat := range []string{name + " ", "/" + name, name + " -"} {
			if strings.Contains(line, pat) {
				return name
			}
		}
	}
	return ""
}

var flagNameRe = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// flagTokens extracts -flag names from a shell line, dropping values
// (-nodes 8, -fig=fig16) and anything not flag-shaped (prose like
// "-mix/-dist", digits, lone dashes).
func flagTokens(line string) []string {
	var out []string
	for _, tok := range strings.Fields(line) {
		if !strings.HasPrefix(tok, "-") || strings.HasPrefix(tok, "--") {
			continue
		}
		name := strings.TrimPrefix(tok, "-")
		if i := strings.IndexByte(name, '='); i >= 0 {
			name = name[:i]
		}
		if !flagNameRe.MatchString(name) {
			continue
		}
		out = append(out, name)
	}
	return out
}

var metricNameRe = regexp.MustCompile(`"(zht\.[a-z0-9_.]+)"`)

// checkMetricCatalogue requires every metric name registered in
// non-test source to appear in OBSERVABILITY.md.
func checkMetricCatalogue(fail func(string, ...any)) {
	catalogue, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		fail("OBSERVABILITY.md: %v", err)
		return
	}
	names := map[string][]string{} // metric → files registering it
	for _, root := range []string{"internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") ||
				strings.HasPrefix(path, filepath.Join("internal", "tools")) {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			for _, m := range metricNameRe.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = append(names[m[1]], path)
			}
			return nil
		})
	}
	for _, name := range sortedKeys(names) {
		if !strings.Contains(string(catalogue), name) {
			fail("metric %q (registered in %s) is not catalogued in OBSERVABILITY.md",
				name, names[name][0])
		}
	}
}

// checkConfigKnobs requires every exported core.Config field to be set
// by name outside tests — as a key of a core.Config or zht.Config
// literal, or by assignment to a field of a variable of that type — in
// a non-test file under cmd/, internal/, examples/ or benchmark/, or in
// zht.go. internal/core only reads and defaults its knobs, so its own
// files do not count.
func checkConfigKnobs(fail func(string, ...any)) {
	decl, err := parser.ParseFile(token.NewFileSet(), "internal/core/config.go", nil, 0)
	if err != nil || decl.Scope.Lookup("Config") == nil {
		fail("internal/core/config.go: no Config type (%v)", err)
		return
	}
	set := map[string]bool{}
	files := []string{"zht.go"}
	for _, root := range []string{"cmd", "internal", "examples", "benchmark"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") &&
				filepath.Dir(path) != filepath.Join("internal", "core") {
				files = append(files, path)
			}
			return nil
		})
	}
	for _, path := range files {
		if f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0); err != nil {
			fail("%s: %v", path, err)
		} else {
			knobsSet(f, set)
		}
	}
	for _, fld := range decl.Scope.Lookup("Config").Decl.(*ast.TypeSpec).Type.(*ast.StructType).Fields.List {
		for _, id := range fld.Names {
			if id.IsExported() && !set[id.Name] {
				fail("core.Config.%s is set only by tests; make it an unexported constant or test hook in internal/core", id.Name)
			}
		}
	}
}

// knobsSet adds to set the core.Config fields file f sets by name.
func knobsSet(f *ast.File, set map[string]bool) {
	isConfig := func(e ast.Expr) bool {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X // &Config{...}
		}
		if lit, ok := e.(*ast.CompositeLit); ok {
			e = lit.Type
		}
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
		}
		if id, ok := e.(*ast.Ident); ok {
			return f.Name.Name == "zht" && id.Name == "Config"
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			pkg, ok := sel.X.(*ast.Ident)
			return ok && (pkg.Name == "core" || pkg.Name == "zht") && sel.Sel.Name == "Config"
		}
		return false
	}
	// vars names the variables, parameters and struct fields that hold
	// a Config: declared with its type or assigned a Config literal.
	vars := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				vars[id.Name] = vars[id.Name] || isConfig(n.Type)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				vars[id.Name] = vars[id.Name] || n.Type != nil && isConfig(n.Type) || i < len(n.Values) && isConfig(n.Values[i])
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
					vars[id.Name] = vars[id.Name] || isConfig(n.Rhs[i])
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isConfig(n) {
				break
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					switch x := sel.X.(type) {
					case *ast.Ident:
						set[sel.Sel.Name] = set[sel.Sel.Name] || vars[x.Name]
					case *ast.SelectorExpr:
						set[sel.Sel.Name] = set[sel.Sel.Name] || vars[x.Sel.Name]
					}
				}
			}
		}
		return true
	})
}

// A contract is a subsystem's canonical metric set. checkMetricCatalogue
// only verifies registered → catalogued; a contract pins both
// directions for its names, so deleting either the registration or the
// catalogue row fails the gate.
type contract struct {
	label    string   // names the contract in failure messages
	metrics  []string // the canonical names
	roots    []string // directories under internal/ whose non-test source must register them
	required []string // directories under internal/ that must exist (their package comments are enforced by checkPackageComments)
	what     string   // what a missing required directory removes
}

var contracts = []contract{
	// The replica repair subsystem (DESIGN.md §9): convergence
	// debugging depends on these.
	{
		label: "repair",
		metrics: []string{
			"zht.repair.digest_syncs",
			"zht.repair.ranges_pulled",
			"zht.repair.handoff.queued",
			"zht.repair.handoff.replayed",
			"zht.repair.handoff.dropped",
		},
		roots:    []string{"repair", "core"},
		required: []string{"repair"},
		what:     "the replica repair subsystem",
	},
	// Elastic membership: epoch gossip plus the throttled online
	// migration engine (DESIGN.md §10).
	{
		label: "membership",
		metrics: []string{
			"zht.membership.epoch",
			"zht.membership.stale_detected",
			"zht.membership.gossip.pulls",
			"zht.membership.gossip.advanced",
			"zht.membership.gossip.full_tables",
			"zht.migrate.partitions",
			"zht.migrate.pairs",
			"zht.migrate.bytes",
			"zht.migrate.rounds",
			"zht.migrate.cutovers",
			"zht.migrate.aborts",
			"zht.migrate.throttle_ns",
		},
		roots:    []string{"gossip", "core"},
		required: []string{"gossip"},
		what:     "the membership gossip subsystem",
	},
	// The hot-path message and buffer pools (DESIGN.md §11): a
	// pooled-buffer leak (gets outrunning puts) is diagnosed by exactly
	// these counters.
	{
		label: "pool",
		metrics: []string{
			"zht.wire.pool.gets",
			"zht.wire.pool.puts",
			"zht.wire.pool.misses",
			"zht.transport.buf.reuse",
		},
		roots: []string{"wire", "transport"},
	},
	// Tunable consistency (DESIGN.md §12): quorum traffic, read-repair
	// activity and LWW conflict resolution.
	{
		label: "consistency",
		metrics: []string{
			"zht.consistency.quorum_reads",
			"zht.consistency.quorum_writes",
			"zht.consistency.stale_reads_repaired",
			"zht.consistency.version_conflicts",
		},
		roots: []string{"core"},
	},
	// The multi-tenant front door (DESIGN.md §13): admission verdicts
	// and in-flight pressure, lazy-expiry and reaper activity, and the
	// memcached gateway's connection and command counters tell a shed
	// tenant or a cold cache apart from an outage.
	{
		label: "tenancy",
		metrics: []string{
			"zht.tenant.admitted",
			"zht.tenant.shed",
			"zht.tenant.inflight",
			"zht.tenant.expired_reads",
			"zht.tenant.reaped",
			"zht.memcached.conns",
			"zht.memcached.cmds",
			"zht.memcached.hits",
			"zht.memcached.misses",
			"zht.memcached.errors",
		},
		roots:    []string{"tenant", "memcached", "core"},
		required: []string{"tenant", "memcached"},
		what:     "the multi-tenant front door",
	},
}

// checkContract requires c's required directories to exist and every
// one of its metrics to be registered in the non-test source under its
// roots and catalogued in OBSERVABILITY.md.
func checkContract(c contract, fail func(string, ...any)) {
	for _, dir := range c.required {
		if fi, err := os.Stat(filepath.Join("internal", dir)); err != nil || !fi.IsDir() {
			fail("internal/%s is missing; %s is mandatory", dir, c.what)
			return
		}
	}
	var src strings.Builder
	where := make([]string, len(c.roots))
	for i, root := range c.roots {
		where[i] = "internal/" + root
		filepath.WalkDir(filepath.Join("internal", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if b, err := os.ReadFile(path); err == nil {
				src.Write(b)
			}
			return nil
		})
	}
	catalogue, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		fail("OBSERVABILITY.md: %v", err)
		return
	}
	for _, name := range c.metrics {
		if !strings.Contains(src.String(), `"`+name+`"`) {
			fail("%s metric %q is not registered in %s", c.label, name, orList(where))
		}
		if !strings.Contains(string(catalogue), name) {
			fail("%s metric %q is not catalogued in OBSERVABILITY.md", c.label, name)
		}
	}
}

// orList joins items as prose: "a", "a or b", "a, b, or c".
func orList(items []string) string {
	switch n := len(items); n {
	case 1:
		return items[0]
	case 2:
		return items[0] + " or " + items[1]
	default:
		return strings.Join(items[:n-1], ", ") + ", or " + items[n-1]
	}
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
