// Package frozenmachine enforces the read-only-after-construction
// contract of machine.Machine. This is the invariant that makes
// RunAllParallel race-free: one Machine is shared by every concurrently
// running experiment.
//
// At depth 0 (Run, syntactic, outside the machine package): no code
// may assign through a Machine — neither to its own fields
// (m.Spec = ...) nor deeper into the spec/fabric/memory objects it
// points at (m.Spec.Latency.LocalDRAMNs = ...) — and no code may
// construct a Machine literal instead of calling machine.New.
//
// The call-graph closure (RunProgram) asks the stronger question
// inside package machine itself: which writes through a Machine are
// reachable from an entry point that may run after construction? A
// write is legitimate only while a constructor (machine.New,
// machine.NewWithCalibration, ...) still owns the value. The pass
// walks the call graph backwards from each write, visiting callers
// transitively and stopping at constructors (a path through New is
// construction-time and excused). If the walk reaches an exported
// function or method that is not a constructor, the write is reported
// at the write itself with the offending entry chain. Unexported
// helpers reachable only from constructors stay clean.
//
// Deviations are suppressed per line with
// `//p8:allow frozenmachine: <why>`.
package frozenmachine

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/tools/analyzers/analysis"
)

// Analyzer is the frozenmachine pass.
var Analyzer = &analysis.Analyzer{
	Name:       "frozenmachine",
	Doc:        "machine.Machine is read-only outside its constructor package, and no write to it is reachable from a post-construction entry point",
	Run:        run,
	RunProgram: runProgram,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, lhs := range writeTargets(n) {
				checkWrite(pass, lhs)
			}
			if lit, ok := n.(*ast.CompositeLit); ok {
				checkLiteral(pass, lit)
			}
			return true
		})
	}
	return nil
}

// writeTargets returns the expressions an assignment or inc/dec
// statement writes to, or nil for any other node.
func writeTargets(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	}
	return nil
}

// checkWrite reports when an assignment target is reached through a
// Machine owned by another package.
func checkWrite(pass *analysis.Pass, lhs ast.Expr) {
	root := machineRoot(pass.TypesInfo, lhs)
	if root == nil || root.Obj().Pkg() == pass.Pkg {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write through machine.Machine: the machine is read-only after construction (shared by concurrent experiments); build a new Machine instead")
}

// machineRoot walks the selector/index chain of an expression and
// returns the Machine type it passes through, or nil.
func machineRoot(info *types.Info, e ast.Expr) *types.Named {
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		case *ast.StarExpr:
			inner = x.X
		case *ast.ParenExpr:
			inner = x.X
		default:
			return nil
		}
		if named := asMachine(info.TypeOf(inner)); named != nil {
			return named
		}
		e = inner
	}
}

// asMachine returns the named machine.Machine type behind t, or nil.
func asMachine(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			if analysis.IsNamed(tt, "machine", "Machine") {
				return tt
			}
			return nil
		default:
			return nil
		}
	}
}

// checkLiteral reports Machine composite literals outside the
// constructor package.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	if lit.Type == nil {
		return
	}
	named := asMachine(pass.TypeOf(lit.Type))
	if named == nil || named.Obj().Pkg() == pass.Pkg {
		return
	}
	pass.Reportf(lit.Pos(), "construct Machine with machine.New/NewWithCalibration, not a literal (calibrations and invariants live in the constructor)")
}

func runProgram(pass *analysis.ProgramPass) error {
	g := pass.Prog.Graph()

	// Reverse edges: rev[callee] lists the callers, in the graph's
	// deterministic node/site order.
	rev := make(map[*analysis.FuncNode][]*analysis.FuncNode)
	for _, n := range g.Sorted {
		for _, site := range n.Calls {
			for _, callee := range site.Callees {
				rev[callee] = append(rev[callee], n)
			}
		}
	}

	for _, n := range g.Sorted {
		if n.Pkg.Types.Name() != "machine" || isConstructor(n) {
			continue
		}
		for _, w := range machineWrites(pass, n) {
			if entry, chain := postConstructionEntry(rev, n); entry != nil {
				pass.Reportf(w,
					"write to machine.Machine reachable after construction: %s assigns through the Machine and is reached by exported %s (entry chain %s); the Machine is frozen once New returns — build a new one instead",
					n, entry, strings.Join(chain, " → "))
			}
		}
	}
	return nil
}

// isConstructor reports whether the node is construction-time code:
// the New* constructors and package init, where writes into the
// not-yet-published Machine are the whole point.
func isConstructor(n *analysis.FuncNode) bool {
	name := n.Func.Name()
	return strings.HasPrefix(name, "New") || name == "init"
}

// machineWrites returns the positions of assignments through a Machine
// in the node's body, skipping waived lines.
func machineWrites(pass *analysis.ProgramPass, n *analysis.FuncNode) []token.Pos {
	var writes []token.Pos
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		for _, lhs := range writeTargets(node) {
			if machineRoot(n.Pkg.Info, lhs) != nil && !pass.Prog.Allowed(pass.Analyzer.Name, lhs.Pos()) {
				writes = append(writes, lhs.Pos())
			}
		}
		return true
	})
	return writes
}

// postConstructionEntry walks callers backwards from the writing
// function. It returns the first exported non-constructor function the
// walk reaches, with the call chain from that entry down to the
// writer, or nil if every path into the writer passes through a
// constructor.
func postConstructionEntry(rev map[*analysis.FuncNode][]*analysis.FuncNode, w *analysis.FuncNode) (*analysis.FuncNode, []string) {
	// parent[n] records how the BFS reached n (i.e. n's callee on the
	// discovered path toward w).
	parent := map[*analysis.FuncNode]*analysis.FuncNode{w: nil}
	queue := []*analysis.FuncNode{w}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if ast.IsExported(n.Func.Name()) {
			var chain []string
			for at := n; at != nil; at = parent[at] {
				chain = append(chain, at.String())
			}
			return n, chain
		}
		for _, caller := range rev[n] {
			if _, seen := parent[caller]; seen || isConstructor(caller) {
				continue
			}
			parent[caller] = n
			queue = append(queue, caller)
		}
	}
	return nil, nil
}
