// Package linkcheck holds one test: every function and method under
// internal/ that has a body must be linked into some cmd/ binary, or be
// on a short allowlist that says why it stays. The linker already
// computes what the binaries reach, so the check needs only the
// toolchain: build each binary with inlining off, read its symbols with
// `go tool nm`, and compare them with the declarations go/parser finds.
package linkcheck

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// internalPrefix is the import-path prefix of the packages checked.
const internalPrefix = "repro/internal/"

// allowlist names the functions no cmd/ binary links that stay anyway,
// keyed as `go tool nm` prints them with the import-path prefix dropped
// and type parameters stripped: "pkg.Func", "pkg.Type.Method" or
// "pkg.(*Type).Method". Each reason starts with one of the kinds in
// reasonKinds.
var allowlist = map[string]string{
	"tensor.Randn":              "bench-only: bench's GEMM and nn probes draw their inputs from it",
	"hpo.(*FuncObjective).Name": "bench-only: bench's runtime probes run FuncObjective studies",
	"hpo.(*FuncObjective).Run":  "bench-only: bench's runtime probes run FuncObjective studies",

	"comm.NewMemPair":            "ROADMAP item 10: the in-memory transport a seeded protocol simulator runs on",
	"comm.(*memShared).close":    "ROADMAP item 10: the in-memory transport a seeded protocol simulator runs on",
	"comm.(*memTransport).Send":  "ROADMAP item 10: the in-memory transport a seeded protocol simulator runs on",
	"comm.(*memTransport).Recv":  "ROADMAP item 10: the in-memory transport a seeded protocol simulator runs on",
	"comm.(*memTransport).Close": "ROADMAP item 10: the in-memory transport a seeded protocol simulator runs on",

	"tensor.FromSlice":               "test helper for nn tests: layer inputs and weights from literals",
	"tensor.(*Tensor).Equal":         "test helper for datasets tests: same seed, same tensor",
	"tensor.(*Tensor).AllClose":      "test helper for nn tests: gradients of two backward paths",
	"tensor.sameShape":               "test helper for datasets and nn tests: Equal and AllClose call it",
	"store.(*Journal).StudyPromotes": "test helper for hpo and server tests: the promotions a study journaled",
	"hpo.(*AdmissionQueue).Depth":    "test helper for server tests: studies waiting in the runner's queue",
	"hpo.(*AdmissionQueue).Granted":  "test helper for server tests: slots the runner's queue has granted",
}

// reasonKinds are the four reasons an unlinked function may stay.
var reasonKinds = []string{
	"bench-only: ",     // bench/ links it; bench is its own module, outside this check
	"ROADMAP item ",    // a numbered open item makes it live
	"docs: ",           // a named clause in docs/ promises it
	"test helper for ", // tests of other packages call it; a _test.go file cannot export
}

func TestEveryInternalFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every cmd/ binary")
	}
	for name, why := range allowlist {
		if !hasReasonKind(why) {
			t.Errorf("allowlist %s: reason %q names none of the kinds %q", name, why, reasonKinds)
		}
	}

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedSymbols(t, root)
	declared := declaredFuncs(t, root)

	var unlinked []string
	for name, pos := range declared {
		if linked[name] {
			if _, ok := allowlist[name]; ok {
				t.Errorf("stale allowlist entry %s: a cmd/ binary links it (%s)", name, pos)
			}
			continue
		}
		if _, ok := allowlist[name]; !ok {
			unlinked = append(unlinked, pos+": "+name)
		}
	}
	for name := range allowlist {
		if _, ok := declared[name]; !ok {
			t.Errorf("stale allowlist entry %s: no such function under internal/", name)
		}
	}
	if len(unlinked) > 0 {
		sort.Strings(unlinked)
		t.Errorf("%d functions under internal/ are linked into no cmd/ binary; delete them, move test-only helpers into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
}

func hasReasonKind(why string) bool {
	for _, k := range reasonKinds {
		if strings.HasPrefix(why, k) {
			return true
		}
	}
	return false
}

// typeParams matches one bracketed type-argument list, as nm prints
// generic instantiations ("Ring[go.shape.int]"). Lists do not nest in
// the names this repository produces.
var typeParams = regexp.MustCompile(`\[[^\[\]]*\]`)

// linkedSymbols builds every cmd/ binary with inlining off, so that each
// function a binary reaches keeps its own symbol, and returns the
// internal text symbols the binaries hold.
func linkedSymbols(t *testing.T, root string) map[string]bool {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build the binaries: %v", err)
	}
	bin := t.TempDir()
	cmd := exec.Command(gobin, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	exes, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(exes) == 0 {
		t.Fatal("go build ./cmd/... produced no binaries")
	}
	linked := map[string]bool{}
	for _, exe := range exes {
		out, err := exec.Command(gobin, "tool", "nm", filepath.Join(bin, exe.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", exe.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "  4a1f20 T repro/internal/hpo.(*Study).Run"
			f := strings.Fields(sc.Text())
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], internalPrefix) {
				continue
			}
			name := typeParams.ReplaceAllString(strings.TrimPrefix(f[2], internalPrefix), "")
			linked[strings.TrimSuffix(name, "-fm")] = true
		}
	}
	return linked
}

// declaredFuncs returns every function and method with a body declared
// in a non-test file under internal/ that builds for this platform,
// keyed as linkedSymbols keys them, with its file:line.
func declaredFuncs(t *testing.T, root string) map[string]string {
	fset := token.NewFileSet()
	funcs := map[string]string{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := pkg + "." + fn.Name.Name
			switch {
			case fn.Recv != nil:
				key = pkg + "." + receiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
			case fn.Name.Name == "init":
				// The linker numbers a package's init functions, and
				// they run together: the first stands for all of them.
				key = pkg + ".init.0"
			}
			p := fset.Position(fn.Pos())
			relFile, _ := filepath.Rel(root, p.Filename)
			funcs[key] = relFile + ":" + strconv.Itoa(p.Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// receiver spells a method's receiver type as nm does: "T" or "(*T)",
// without type parameters.
func receiver(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}
