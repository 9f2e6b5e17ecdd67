package analysis

import (
	"go/ast"
	"go/types"
)

// SharedRNG flags an rng generator crossing a goroutine boundary: a
// *rng.RNG, or an rng.Stepper register copy of one, captured by a
// `go func(){…}` closure or passed as an argument in a `go` statement.
// Generators are single-threaded state machines — sharing one across
// goroutines is both a data race and a determinism break, because the
// interleaving decides who draws which variate, and a copied Stepper
// duplicates its stream outright. Each worker must derive its own generator
// inside the goroutine via rng.At (or rng.New with a worker-indexed seed),
// which is also what makes results worker-count-invariant.
var SharedRNG = &Analyzer{
	Name: "sharedrng",
	Doc:  "forbid *rng.RNG and rng.Stepper values crossing goroutine boundaries; derive per-worker generators via rng.At",
	Run:  runSharedRNG,
}

func runSharedRNG(pass *Pass) error {
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g)
			return true
		})
	}
	return nil
}

func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	call := g.Call
	// Generator passed as an argument to the spawned function.
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok {
			if name := rngType(tv.Type); name != "" {
				pass.Reportf(arg.Pos(), "%s passed into goroutine: derive a per-worker generator inside the goroutine via rng.At(base, worker)", name)
			}
		}
	}
	// Generator captured by a goroutine closure.
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || reported[obj] {
			return true
		}
		name := rngType(obj.Type())
		if name == "" {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		// Declared outside the func literal ⇒ captured.
		if obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
			reported[obj] = true
			pass.Reportf(id.Pos(), "%s %q captured by goroutine closure: derive a per-worker generator inside the goroutine via rng.At(base, worker)", name, id.Name)
		}
		return true
	})
}

// rngType names t for a finding when it is a generator from a package whose
// path ends in "rng" — "*rng.RNG" for RNG or *RNG, "rng.Stepper" for
// Stepper or *Stepper — and returns "" otherwise.
func rngType(t types.Type) string {
	switch {
	case NamedFrom(t, "rng", "RNG"):
		return "*rng.RNG"
	case NamedFrom(t, "rng", "Stepper"):
		return "rng.Stepper"
	}
	return ""
}
