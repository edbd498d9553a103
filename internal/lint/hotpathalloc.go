package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the zero-allocation architecture (DESIGN.md §8):
// inside functions marked //flb:hotpath it flags every construct that
// heap-allocates or is likely to — make/new, slice, map and address-taken
// composite literals, append that does not feed back into its own first
// argument, implicit interface conversions (boxing), fmt/log calls,
// function literals (closure capture), defer/go, and string
// concatenation. A finding justified by design is suppressed with a
// line-level //flb:alloc-ok <why>.
//
// The check is reachability-based, not syntactic: every function a
// //flb:hotpath root can reach through resolved static calls — in any
// package of the program — is on the hot path and checked with the same
// rules, whether or not it carries the marker itself. (Interface calls
// are excluded: the guarded obs.Sink emissions are exactly the designed
// escape from the hot path into sinks that may allocate.) An unmarked
// helper that allocates two calls below the FLB inner loop is therefore
// a finding in the helper's package, with the witness chain in the
// message.
//
// The analyzer also *requires* the marker on the functions the paper's
// complexity argument depends on — the FLB inner loop, the heap
// operations and the CSR adjacency accessors — so the invariant cannot be
// silently unmarked away.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "flag allocating constructs in //flb:hotpath functions and everything " +
		"they transitively call, and require the marker on the FLB inner loop",
	Run: runHotPathAlloc,
}

// allocOKBanned lists the packages where //flb:alloc-ok may not appear
// inside hot paths: the scheduler and simulator loops must stay
// allocation-free with a nil observer, so allocating work belongs in an
// obs.Sink implementation, never suppressed in place. Sink packages
// (internal/obs and others) remain free to justify allocations.
var allocOKBanned = map[string]bool{
	"flb/internal/core": true,
	"flb/internal/sim":  true,
}

// requiredHotpath lists, per package, the receiver-qualified functions
// that must carry //flb:hotpath: the per-iteration FLB procedures, the
// O(log n) heap operations, the CSR adjacency accessors, and the batch
// engine's per-job worker loop.
var requiredHotpath = map[string][]string{
	"flb/internal/par": {
		"Engine.work",
	},
	"flb/internal/core": {
		"flbState.run", "flbState.scheduleTask", "flbState.updateTaskLists",
		"flbState.updateProcLists", "flbState.updateReadyTasks", "flbState.classifyReady",
	},
	"flb/internal/pq": {
		"Heap.Push", "Heap.Pop", "Heap.Peek", "Heap.Remove", "Heap.Update", "Heap.PushOrUpdate",
	},
	"flb/internal/graph": {
		"Graph.SuccEdges", "Graph.PredEdges", "Graph.Edge",
	},
	"flb/internal/algo": {
		"ReadyTracker.Complete",
	},
	"flb/internal/memo": {
		"KeyOf",
	},
}

func runHotPathAlloc(p *Pass) {
	marked := map[string]bool{}
	checked := map[*ast.FuncDecl]bool{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			_, hot := p.FuncDirective(fn, "hotpath")
			if hot {
				marked[funcKey(fn)] = true
				checked[fn] = true
				checkHotFunc(p, fn, "")
			}
		}
	}
	for _, want := range requiredHotpath[p.Pkg.Path] {
		if !marked[want] {
			p.Reportf(p.Pkg.Files[0].Name.Pos(), "%s must be marked //flb:hotpath: the FLB cost model depends on it staying allocation-free", want)
		}
	}
	checkReachableHot(p, checked)
}

// checkReachableHot extends the allocation check to this package's
// unmarked functions that some //flb:hotpath root (in any package)
// reaches through static calls.
func checkReachableHot(p *Pass, checked map[*ast.FuncDecl]bool) {
	cg := p.Prog.CallGraph()
	var roots []*types.Func
	for _, info := range cg.Funcs() {
		if _, ok := info.Pkg.funcDirective(info.Decl, "hotpath"); ok {
			roots = append(roots, info.Obj)
		}
	}
	from := cg.ReachableFrom(roots, false)
	for _, info := range cg.Funcs() {
		if info.Pkg != p.Pkg || checked[info.Decl] {
			continue
		}
		if _, hot := from[info.Obj]; !hot {
			continue
		}
		checkHotFunc(p, info.Decl, cg.PathString(from, info.Obj))
	}
}

// funcKey names a declaration as RecvType.Name (methods) or Name.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// checkHotFunc walks one hot function body. via is empty for functions
// carrying the marker themselves and the witness call chain for unmarked
// functions reached from a //flb:hotpath root.
func checkHotFunc(p *Pass, fn *ast.FuncDecl, via string) {
	if fn.Body == nil {
		return
	}
	report := func(pos token.Pos, format string, args ...any) {
		if d, ok := p.DirectiveAt(pos, "alloc-ok"); ok {
			if allocOKBanned[p.Pkg.Path] {
				p.Reportf(pos, "//flb:alloc-ok is banned in %s hot paths: keep the nil-observer fast path allocation-free and move allocating work into an obs.Sink implementation", p.Pkg.Path)
				return
			}
			p.requireJustified(d, pos)
			return
		}
		if via != "" {
			format += " (reachable from //flb:hotpath: " + via + ")"
		}
		p.Reportf(pos, format, args...)
	}
	// Appends whose result is assigned back over their own first argument
	// (x = append(x, ...)) amortize into pre-grown arena capacity and are
	// the one allowed append form.
	allowedAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && p.isBuiltin(call.Fun, "append") &&
					len(call.Args) > 0 && types.ExprString(n.Lhs[i]) == types.ExprString(call.Args[0]) {
					allowedAppend[call] = true
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "function literal in hot path: closure capture allocates")
			return false // the literal's body is not the hot path's
		case *ast.DeferStmt:
			report(n.Pos(), "defer in hot path allocates a deferred frame on some paths")
		case *ast.GoStmt:
			report(n.Pos(), "go statement in hot path allocates a goroutine")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					report(lit.Pos(), "address of composite literal escapes to the heap in hot path")
					return false
				}
			}
		case *ast.CompositeLit:
			tv, ok := p.Pkg.Info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates in hot path")
			case *types.Map:
				report(n.Pos(), "map literal allocates in hot path")
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			tv, ok := p.Pkg.Info.Types[n]
			if !ok || tv.Value != nil {
				return true
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(n.OpPos, "string concatenation allocates in hot path")
			}
		case *ast.CallExpr:
			checkHotCall(p, report, n, allowedAppend)
		}
		return true
	})
}

func checkHotCall(p *Pass, report func(token.Pos, string, ...any), call *ast.CallExpr, allowedAppend map[*ast.CallExpr]bool) {
	switch {
	case p.isBuiltin(call.Fun, "make"):
		report(call.Pos(), "make allocates in hot path; use a pre-grown arena slice")
		return
	case p.isBuiltin(call.Fun, "new"):
		report(call.Pos(), "new allocates in hot path")
		return
	case p.isBuiltin(call.Fun, "append"):
		if !allowedAppend[call] {
			report(call.Pos(), "append whose result is not assigned back to its first argument allocates (or aliases) in hot path")
		}
		return
	case p.isBuiltin(call.Fun, "panic"):
		if len(call.Args) == 1 {
			if tv, ok := p.Pkg.Info.Types[call.Args[0]]; ok && tv.Value == nil {
				report(call.Pos(), "panic with a computed argument boxes it into an interface in hot path")
			}
		}
		return
	}
	if pkg := calleePackage(p, call.Fun); pkg == "fmt" || pkg == "log" {
		report(call.Pos(), "%s call allocates in hot path", pkg)
		return
	}
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// A conversion: only interface targets allocate.
		if isInterface(tv.Type) && len(call.Args) == 1 && boxes(p, call.Args[0]) {
			report(call.Pos(), "conversion to interface %s allocates in hot path", types.ExprString(call.Fun))
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue // f(xs...) passes the slice through unboxed
		}
		if isInterface(pt) && boxes(p, arg) {
			report(arg.Pos(), "passing %s as interface %s boxes it onto the heap in hot path", types.ExprString(arg), pt.String())
		}
	}
}

// boxes reports whether passing arg to an interface-typed slot allocates:
// a computed non-interface, non-nil value does.
func boxes(p *Pass, arg ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isInterface(tv.Type)
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isBuiltin reports whether e names the given predeclared function.
func (p *Pass) isBuiltin(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// calleePackage returns the import path basename when e is a
// package-qualified selector like fmt.Sprintf, else "".
func calleePackage(p *Pass, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	path := pn.Imported().Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}
