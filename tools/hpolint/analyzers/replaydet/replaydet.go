// Package replaydet enforces the replay contract's determinism clause
// (docs/JOURNAL.md §8): code on the scheduler/pruner decision path must be
// a pure function of the journal record stream, so wall-clock reads, the
// process-global math/rand source, and order-sensitive iteration over maps
// are forbidden there.
//
// Scope: every file of internal/replay, and the decision-path files of
// internal/hpo (decide.go, scheduler.go, pruner.go). A map
// range whose body is exactly one append into a slice is allowed — the
// collect-then-sort idiom; anything else needs a sort or a justified
// //lint:ignore.
package replaydet

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"repro/tools/hpolint/internal/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "replaydet",
	Doc:  "forbid wall-clock, global math/rand and unsorted map iteration on the replay decision path",
	Run:  run,
}

// decisionFiles are the internal/hpo files on the decision path: the pure
// decision core plus the scheduler and pruner state machines the replay
// engine re-drives.
var decisionFiles = map[string]bool{
	"decide.go":    true,
	"scheduler.go": true,
	"pruner.go":    true,
}

// randAllowed lists the math/rand functions that do not touch the
// process-global source.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *lintkit.Pass) error {
	inReplay := strings.HasSuffix(pass.ImportPath, "internal/replay")
	inHPO := strings.HasSuffix(pass.ImportPath, "internal/hpo")
	if !inReplay && !inHPO {
		return nil
	}
	for _, f := range pass.Files {
		if inHPO && !decisionFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSelector flags wall-clock reads and global math/rand use.
func checkSelector(pass *lintkit.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if name := obj.Name(); name == "Now" || name == "Since" || name == "Until" {
			pass.Reportf(sel.Pos(),
				"time.%s on the replay decision path: decisions must be a pure function of the record stream (docs/JOURNAL.md §8)", name)
		}
	case "math/rand", "math/rand/v2":
		// Methods on a *rand.Rand use whatever source built it; only the
		// package-level functions (nil receiver) touch the global source.
		fn, isFunc := obj.(*types.Func)
		if isFunc && fn.Type().(*types.Signature).Recv() == nil && !randAllowed[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand.%s on the replay decision path: use a rand.New(rand.NewSource(seed)) source derived from the study seed", obj.Name())
		}
	}
}

// checkRange flags ranges over maps unless the body is the canonical
// collect-into-a-slice single append (sorted or reduced order-insensitively
// by the caller).
func checkRange(pass *lintkit.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isSingleAppend(rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map on the replay decision path iterates in nondeterministic order: collect and sort the keys, or suppress with a justification if the loop is order-insensitive")
}

// isSingleAppend reports whether the block is exactly one
// `xs = append(xs, ...)` statement.
func isSingleAppend(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	assign, ok := body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "append"
}
