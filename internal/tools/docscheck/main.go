// Command docscheck is the `make docs-check` gate: it keeps the prose
// honest against the code. It fails when
//
//   - any package under internal/ or cmd/ lacks a package comment,
//   - a shell code block in one of the flagDocs passes a flag to a
//     zht-* binary that the binary does not define, or
//   - a metric name registered anywhere in the source ("zht.*" string
//     literal) is missing from the OBSERVABILITY.md catalogue, or
//   - an exported field of an options struct zht-server links
//     (core.Config, novoht.Options, ... — the knobs table) is set only
//     by tests or its own package — a knob no binary, example, figure
//     or benchmark sets is a test hook and belongs unexported in its
//     package, or
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
	for _, doc := range flagDocs {
		checkDocFlags(doc, cmdFlags, fail)
	}
	checkMetricCatalogue(fail)
	checkKnobs(".", knobs, fail)
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
// contains at least one non-test .go file, outside testdata/ trees.
func goSourceDirs(roots ...string) []string {
	seen := map[string]bool{}
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
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

// flagDocs are the markdown files whose code blocks checkDocFlags
// reads: every file that shows zht-* command lines.
var flagDocs = []string{"README.md", "OBSERVABILITY.md", "EXPERIMENTS.md", "DESIGN.md"}

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

// A knob is one exported options struct of a package zht-server links
// (go list -deps ./cmd/zht-server). Each of its exported fields must be
// set by name in non-test code outside its declaring package — a field
// no binary, example, figure or benchmark sets is a test hook and
// belongs unexported in that package.
type knob struct {
	dir   string   // declaring package directory, slash-separated, relative to the root
	typ   string   // the struct type's name
	quals []string // package names a literal qualifies it with; a file of one of these packages may also name it bare
	seams []string // fields kept as test substitution points
}

var knobs = []knob{
	{dir: "internal/core", typ: "Config", quals: []string{"core", "zht"}},
	{dir: "internal/novoht", typ: "Options", quals: []string{"novoht"}, seams: []string{"Fault"}},
	{dir: "internal/transport", typ: "TCPClientOptions", quals: []string{"transport"}},
	{dir: "internal/transport", typ: "UDPClientOptions", quals: []string{"transport"}},
	{dir: "internal/gossip", typ: "Options", quals: []string{"gossip"}},
	{dir: "internal/tenant", typ: "Tenant", quals: []string{"tenant"}},
	{dir: "internal/tenant", typ: "AdmissionOptions", quals: []string{"tenant"}},
	{dir: "internal/memcached", typ: "Options", quals: []string{"memcached"}},
	{dir: "internal/repair", typ: "LegQueueOptions", quals: []string{"repair"}},
}

// checkKnobs requires every exported field of each knob under root to
// be set by name — as a key of a literal of its type, or by assignment
// to a field of a variable, parameter or struct field of that type — in
// a non-test file of the root package, cmd/, internal/, examples/ or
// benchmark/, outside the knob's own package (which only reads and
// defaults it) and outside testdata/ trees.
func checkKnobs(root string, knobs []knob, fail func(string, ...any)) {
	files, _ := filepath.Glob(filepath.Join(root, "*.go"))
	for _, dir := range []string{"cmd", "internal", "examples", "benchmark"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if err == nil && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	var parsed []*ast.File
	var dirs []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue // a test's setter makes no knob
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			fail("%s: %v", path, err)
			continue
		}
		parsed = append(parsed, f)
		dirs = append(dirs, filepath.Dir(path))
	}
	for _, k := range knobs {
		fields, err := exportedFields(filepath.Join(root, filepath.FromSlash(k.dir)), k.typ)
		if err != nil {
			fail("%s: %v", k.dir, err)
			continue
		}
		set := map[string]bool{}
		for _, s := range k.seams {
			set[s] = true
		}
		for i, f := range parsed {
			if dirs[i] != filepath.Join(root, filepath.FromSlash(k.dir)) {
				knobsSet(f, k, set)
			}
		}
		for _, name := range fields {
			if !set[name] {
				fail("%s.%s.%s is set only by tests or its own package; make it an unexported constant or test hook in %s",
					k.quals[0], k.typ, name, k.dir)
			}
		}
	}
}

// exportedFields returns the exported field names of struct type typ
// declared in the non-test files of dir.
func exportedFields(dir, typ string) ([]string, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			obj := f.Scope.Lookup(typ)
			if obj == nil {
				continue
			}
			var st *ast.StructType
			if ts, ok := obj.Decl.(*ast.TypeSpec); ok {
				st, _ = ts.Type.(*ast.StructType)
			}
			if st == nil {
				return nil, fmt.Errorf("%s is not a struct", typ)
			}
			var names []string
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
			return names, nil
		}
	}
	return nil, fmt.Errorf("no %s type", typ)
}

// knobsSet adds to set the fields of knob k that file f sets by name.
func knobsSet(f *ast.File, k knob, set map[string]bool) {
	qualified := func(pkg string) bool {
		for _, q := range k.quals {
			if q == pkg {
				return true
			}
		}
		return false
	}
	isKnob := func(e ast.Expr) bool {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X // &T{...}
		}
		if lit, ok := e.(*ast.CompositeLit); ok {
			e = lit.Type
		}
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
		}
		if id, ok := e.(*ast.Ident); ok {
			return qualified(f.Name.Name) && id.Name == k.typ
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			pkg, ok := sel.X.(*ast.Ident)
			return ok && qualified(pkg.Name) && sel.Sel.Name == k.typ
		}
		return false
	}
	// vars names the variables, parameters and struct fields that hold
	// a k: declared with its type or assigned a literal of it.
	vars := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				vars[id.Name] = vars[id.Name] || isKnob(n.Type)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				vars[id.Name] = vars[id.Name] || n.Type != nil && isKnob(n.Type) || i < len(n.Values) && isKnob(n.Values[i])
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
					vars[id.Name] = vars[id.Name] || isKnob(n.Rhs[i])
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isKnob(n) {
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
