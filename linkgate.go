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
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

const module = "gdeltmine"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linkgate:", err)
		os.Exit(1)
	}
}

func run() error {
	for key, why := range allowlist {
		if !hasReason(why) {
			return fmt.Errorf("allowlist entry %s: reason %q names no category (%s)", key, why, strings.Join(reasons, " "))
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
	decls, err := declaredFuncs()
	if err != nil {
		return err
	}

	var dead, stale []string
	used := map[string]bool{}
	for key, pos := range decls {
		if linked[key] {
			continue
		}
		if entry, ok := allowed(key); ok {
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
	sort.Strings(dead)
	sort.Strings(stale)
	for _, d := range dead {
		fmt.Println("unlinked:", d)
	}
	for _, s := range stale {
		fmt.Println("stale allowlist entry:", s)
	}
	if len(dead)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions, %d stale allowlist entries", len(dead), len(stale))
	}
	fmt.Printf("linkgate: %d functions declared under internal/, every one linked or allowlisted\n", len(decls))
	return nil
}

func hasReason(why string) bool {
	for _, r := range reasons {
		if strings.HasPrefix(why, r) {
			return true
		}
	}
	return false
}

// allowed reports the allowlist entry covering key: the function itself,
// its receiver type or its package.
func allowed(key string) (string, bool) {
	for k := key; ; {
		if _, ok := allowlist[k]; ok {
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

// linkedFuncs returns the internal functions any binary under dir links, keyed
// like declaredFuncs.
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
			sym, ok := strings.CutPrefix(f[len(f)-1], module+"/")
			if !ok || !strings.HasPrefix(sym, "internal/") {
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

// declaredFuncs returns every function declared in the compiled non-test
// files of the packages under internal/, keyed "internal/p.F" or
// "internal/p.T.M", with its position.
func declaredFuncs() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}`, "./internal/...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	decls := map[string]string{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkg := strings.TrimPrefix(f[0], module+"/")
		for _, path := range f[1:] {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				pos := fset.Position(fd.Pos())
				rel, _ := filepath.Rel(wd, pos.Filename)
				decls[key] = fmt.Sprintf("%s:%d", rel, pos.Line)
			}
		}
	}
	return decls, nil
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
