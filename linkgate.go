//go:build ignore

// Linkgate fails when a function declared in a non-test file under internal/
// is linked into none of the repository's binaries and is not on the
// allowlist below.
//
//	go run linkgate.go
//
// It builds every command and example and the benchmark module with inlining
// off (an inlined function has no symbol of its own and would look dead),
// collects the text symbols under gdeltmine/internal/ from `go tool nm`, and
// compares them with the FuncDecls of every package's compiled non-test files.
// Closures (.funcN, .gowrapN, .deferwrapN), method values (-fm) and generic
// instantiations ([...]) count for the function that declares them. init
// functions are not checked. It also fails on an allowlist entry that names
// nothing declared, or a function some binary links.
//
// The field check does the same for data: every field of the store types in
// stored (store.DB, EventTable, MentionTable, GKGStore, GKGTable) must be
// selected by at least one linked function of the module that the plumbing
// set below does not cover — the code that only moves a column between its
// forms (codec, builder, row copies, splits, invariant checks). A field only
// plumbing selects is resident bytes no query reads. Selections are resolved
// with go/types over every package of the module, so a field is told apart
// from a same-named field of another type; a selection anywhere in a
// function's body, closures included, counts for that function. It also
// fails on a plumbing entry that names nothing declared.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// allowlist maps a function ("pkg.Func" or "pkg.Type.Method", package path
// relative to the module), a type (every method of "pkg.Type") or a whole
// package ("pkg") to why it may stay unlinked. Every reason starts with one
// of the categories in reasons.
var allowlist = map[string]string{
	"internal/baseline": "test package: reference implementations the differential batteries compare against",
	"internal/faults":   "test package: fault injectors for the chaos, crash and retry batteries",

	"internal/store.DB.DiffFromRebuild":   "oracle: an incrementally appended store must equal a cold rebuild",
	"internal/store.DB.checkEventPayload": "oracle: DiffFromRebuild's per-event payload comparison",
	"internal/queries.CoReportScan":       "oracle: the full-scan reference of the pruned co-report kernels",
	"internal/queries.coReportRows":       "oracle: the per-event fold of CoReportScan and of the X2 CoReportSliced",
	"internal/queries.mergeCoPartials":    "oracle: CoReportScan's partial merge",
	"internal/queries.FollowReportScan":   "oracle: the full-scan reference of the pruned follow kernels",
	"internal/bitmap.Equal":               "oracle: append_differential_test.go compares appended and rebuilt postings",
	"internal/gdelt.Mention.Delay":        "oracle: the row-store delay the plan-kind and corpus tests compare against",

	"internal/queries.CoReportSliced": "X2: the time-sliced co-report behind gdeltmine.Dataset.CoReportSliced",
	"internal/matrix.FromDense":       "X2: compresses each time slice of the sliced co-report",
	"internal/matrix.AssembleCSR":     "X2: sums the sliced co-report's sparse pieces",
	"internal/matrix.CSR.At":          "X2: element access of the assembled sparse matrix",
	"internal/matrix.CSR.NNZ":         "X2: the sliced co-report's nonzero counts",
	"internal/matrix.CSR.RowNNZ":      "X2: row access of the sparse pieces",
	"internal/matrix.CSR.ToDense":     "X2: expands the assembled co-reporting matrix",

	"internal/queries.ToneByCountry": "public API: the body of gdeltmine.Dataset.ToneByCountry",

	"internal/bitmap.Bitmap.AppendTo": "item-10 codec: writes a bitmap for serialized index sections",
	"internal/bitmap.Decode":          "item-10 codec: reads a serialized bitmap, fuzzed by FuzzDecode",
	"internal/bitmap.decoder":         "item-10 codec: Decode's bounds-checked reader",

	"internal/convert.FromRawDir":            "test seam: builds a store from a raw dataset directory with default options",
	"internal/engine.Engine.Context":         "test seam: observes a derived view's context",
	"internal/engine.Engine.Workers":         "test seam: observes a derived view's worker count",
	"internal/ingest.Mem":                    "test seam: an in-memory chunk source",
	"internal/ingest.memSource":              "test seam: Mem's chunk reads",
	"internal/obs.Snapshot.Find":             "test seam: looks a metric up by name and labels",
	"internal/parallel.Pool.Close":           "test seam: stops a test pool's workers",
	"internal/qcache.Cache.Get":              "test seam: probes residency without computing",
	"internal/qcache.Cache.UsedBytes":        "test seam: observes the cache's byte accounting",
	"internal/registry.Kinds":                "test seam: enumerates the registered kinds",
	"internal/retry.Transient":               "test seam: fault injectors mark their errors retryable",
	"internal/retry.Transientf":              "test seam: fault injectors mark their errors retryable",
	"internal/router.Router.Placement":       "test seam: observes shard placement",
	"internal/router.Router.PreferenceOrder": "test seam: observes replica preference order",
	"internal/shard.Log.Gen":                 "test seam: observes the manifest generation",
	"internal/shard.Log.SetStepHook":         "test seam: the crash harness fails the persist protocol at a named step",
	"internal/stream.FeedServer.TickTS":      "test seam: names a feed tick to inject a fault at",
	"internal/stream.LiveRunner.Pending":     "test seam: observes the live runner's out-of-order buffer",
}

// reasons are the categories an allowlist entry may give.
var reasons = []string{"oracle:", "test seam:", "item-10 codec:", "X2:", "public API:", "test package:"}

// plumbing maps the functions, types and packages (keyed like allowlist) whose
// selections of a stored field do not count as reads, to why: they move every
// column between its forms whether or not anything reads it.
var plumbing = map[string]string{
	"internal/binfmt": "codec: the part format writes and reads every stored column",

	"internal/store.Builder":        "build: stages parsed records and fills every column",
	"internal/store.DB.appendRows":  "build: the append path fills every column of a chunk's rows",
	"internal/store.DB.CloneAppend": "copy: clones every column into the next tail",
	"internal/store.EventTable":     "copy: AppendRow and Slice copy or alias every column of a row range",
	"internal/store.MergeEvents":    "copy: merges two event tables column by column",
	"internal/shard.slice":          "copy: a split part copies every column of its rows",
	"internal/shard.sliceGKG":       "copy: a split part copies every GKG column of its rows",

	"internal/store.DB.Validate":        "check: column lengths and references",
	"internal/store.DB.validateTables":  "check: column lengths and references",
	"internal/store.GKGTable.Validate":  "check: column lengths and references",
	"internal/store.GKGStore.Validate":  "check: column lengths and references",
	"internal/store.DB.DiffFromRebuild": "check: the append oracle compares every derived index",
}

// plumbingReasons are the categories a plumbing entry may give.
var plumbingReasons = []string{"codec:", "build:", "copy:", "check:"}

// stored names the types of internal/store whose every field needs a reader.
var stored = []string{"DB", "EventTable", "MentionTable", "GKGStore", "GKGTable"}

const module = "gdeltmine"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linkgate:", err)
		os.Exit(1)
	}
}

func run() error {
	for key, why := range allowlist {
		if !hasReason(why, reasons) {
			return fmt.Errorf("allowlist entry %s: reason %q names no category (%s)", key, why, strings.Join(reasons, " "))
		}
	}
	for key, why := range plumbing {
		if !hasReason(why, plumbingReasons) {
			return fmt.Errorf("plumbing entry %s: reason %q names no category (%s)", key, why, strings.Join(plumbingReasons, " "))
		}
	}
	tmp, err := os.MkdirTemp("", "linkgate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bins := filepath.Join(tmp, "bin")
	if err := os.Mkdir(bins, 0o755); err != nil {
		return err
	}
	if err := goCmd(".", "build", "-gcflags=all=-l", "-o", bins+"/", "./cmd/...", "./examples/..."); err != nil {
		return err
	}
	if err := goCmd("bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bins, "bench"), "."); err != nil {
		return err
	}
	linked, err := linkedFuncs(bins)
	if err != nil {
		return err
	}
	pkgs, err := loadPackages()
	if err != nil {
		return err
	}
	decls := declaredFuncs(pkgs)

	var dead, stale []string
	used := map[string]bool{}
	for key, pos := range decls {
		if linked[key] {
			continue
		}
		if entry, ok := covering(allowlist, key); ok {
			used[entry] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", pos, key))
	}
	for key := range allowlist {
		switch {
		case !used[key] && linked[key]:
			stale = append(stale, key+" is linked; drop it from the allowlist")
		case !used[key]:
			stale = append(stale, key+" names no unlinked declaration")
		}
	}
	unread, nfields := unreadFields(pkgs, linked)
	plumbed := map[string]bool{}
	for key := range decls {
		if entry, ok := covering(plumbing, key); ok {
			plumbed[entry] = true
		}
	}
	for key := range plumbing {
		if !plumbed[key] {
			stale = append(stale, "plumbing "+key+" names no declaration")
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, d := range dead {
		fmt.Println("unlinked:", d)
	}
	for _, u := range unread {
		fmt.Println("unread field:", u)
	}
	for _, s := range stale {
		fmt.Println("stale entry:", s)
	}
	if len(dead)+len(unread)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions, %d unread fields, %d stale entries", len(dead), len(unread), len(stale))
	}
	fmt.Printf("linkgate: %d functions declared under internal/, every one linked or allowlisted; %d stored fields, every one read\n", len(decls), nfields)
	return nil
}

func hasReason(why string, reasons []string) bool {
	for _, r := range reasons {
		if strings.HasPrefix(why, r) {
			return true
		}
	}
	return false
}

// covering reports the entry of m covering key: the function itself, its
// receiver type or its package.
func covering(m map[string]string, key string) (string, bool) {
	for k := key; ; {
		if _, ok := m[k]; ok {
			return k, true
		}
		i := strings.LastIndex(k, ".")
		if i < 0 {
			return "", false
		}
		k = k[:i]
	}
}

func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s (in %s): %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

// suffix matches what the compiler appends to a function's own symbol:
// closures, go/defer wrappers and method values.
var suffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+(\.\d+)*)+$|-fm$`)

// linkedFuncs returns the module's functions any binary under dir links, keyed
// like funcKey.
func linkedFuncs(dir string) (map[string]bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || f[len(f)-2] != "T" {
				continue
			}
			sym := f[len(f)-1]
			switch {
			case strings.HasPrefix(sym, module+"/"):
				sym = strings.TrimPrefix(sym, module+"/")
			case !strings.HasPrefix(sym, module+".") && !strings.HasPrefix(sym, "main."):
				continue
			}
			linked[symbolKey(sym)] = true
		}
	}
	return linked, nil
}

// symbolKey turns "internal/p.(*T[go.shape.int32]).M.func1" into
// "internal/p.T.M".
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return suffix.ReplaceAllString(b.String(), "")
}

// pkg is one package of the module, parsed and type-checked from its
// compiled non-test files.
type pkg struct {
	path  string
	rel   string // the symbol prefix: path relative to the module, the module itself, or "main"
	files []*ast.File
	info  *types.Info
	types *types.Package
}

var fset = token.NewFileSet()

// loadPackages parses and type-checks every package of the module, importing
// its dependencies from the export data `go list -export` leaves in the
// build cache.
func loadPackages() ([]*pkg, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f",
		`{{.ImportPath}}	{{.Export}}	{{with .Module}}{{.Path}}{{end}}	{{.Name}}	{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}`, "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	var pkgs []*pkg
	var files [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if f[2] != module {
			continue
		}
		p := &pkg{path: f[0], rel: strings.TrimPrefix(f[0], module+"/")}
		if f[3] == "main" {
			p.rel = "main"
		}
		pkgs = append(pkgs, p)
		files = append(files, strings.Fields(f[4]))
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	for i, p := range pkgs {
		for _, path := range files[i] {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, file)
		}
		p.info = &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if p.types, err = conf.Check(p.path, fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// funcKey keys a declared function like linkedFuncs keys a symbol:
// "internal/p.F" or "internal/p.T.M".
func funcKey(p *pkg, fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return p.rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return p.rel + "." + fd.Name.Name
}

// declaredFuncs returns every function declared in the compiled non-test
// files of the packages under internal/, keyed by funcKey, with its position.
func declaredFuncs(pkgs []*pkg) map[string]string {
	wd, _ := os.Getwd()
	decls := map[string]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, file := range p.files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(wd, pos.Filename)
					decls[funcKey(p, fd)] = fmt.Sprintf("%s:%d", rel, pos.Line)
				}
			}
		}
	}
	return decls
}

// unreadFields returns the fields of the stored types that no linked function
// outside the plumbing set selects, each with the functions that do, and the
// number of fields checked.
func unreadFields(pkgs []*pkg, linked map[string]bool) ([]string, int) {
	selectors := map[string][]string{} // "internal/store.T.F" -> selecting functions
	var fields []string
	for _, p := range pkgs {
		if p.path == module+"/internal/store" {
			for _, name := range stored {
				st := p.types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
				for i := range st.NumFields() {
					key := p.rel + "." + name + "." + st.Field(i).Name()
					fields = append(fields, key)
					selectors[key] = nil
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := funcKey(p, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if se, ok := n.(*ast.SelectorExpr); ok {
						if sel := p.info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
							if key, ok := fieldKey(sel); ok {
								if fns, watched := selectors[key]; watched && !slices.Contains(fns, fn) {
									selectors[key] = append(fns, fn)
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	var unread []string
	for _, key := range fields {
		fns := selectors[key]
		read := slices.ContainsFunc(fns, func(fn string) bool {
			_, plumbed := covering(plumbing, fn)
			return linked[fn] && !plumbed
		})
		if !read {
			sort.Strings(fns)
			unread = append(unread, fmt.Sprintf("%s (selected by: %s)", key, strings.Join(fns, ", ")))
		}
	}
	return unread, len(fields)
}

// fieldKey names the field a selection picks as "pkg.Type.Field", package
// path relative to the module, following embedded fields to the struct that
// declares it.
func fieldKey(sel *types.Selection) (string, bool) {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		t = st.Field(i).Type()
	}
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	path := strings.TrimPrefix(named.Obj().Pkg().Path(), module+"/")
	return path + "." + named.Obj().Name() + "." + sel.Obj().Name(), true
}

func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.ParenExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	panic(fmt.Sprintf("unexpected receiver %T", t))
}
