package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// servedBlocking lists the clock-mediated waits a served handler must
// never reach. A handler given to vclock.Clock.Serve has no goroutine
// of its own on a simulated clock: a delivery is handled run-to-
// completion on whichever goroutine is advancing the clock, which is
// itself parked in a wait — so a second wait from inside the handler
// corrupts the clock's runnable accounting instead of merely blocking.
var servedBlocking = map[string]bool{
	"Sleep": true,
	"Recv":  true,
}

// ServedBlock enforces Clock.Serve's no-blocking contract. Its entry
// points are the functions handed to a Serve call — a function literal,
// or a function or method value; from each it follows the package call
// graph (goroutine-spawn arguments excluded: what a handler starts with
// Clock.Go may wait as it likes) and flags every call to Clock.Sleep or
// Mailbox.Recv it can reach.
//
// The engine's handlers call their dispatch switch through a func-typed
// field, which a static call graph cannot follow. The rule resolves such
// calls conservatively by type: a call through a func-typed variable or
// field may reach any package function that is used as a value
// somewhere with an identical signature.
var ServedBlock = &Analyzer{
	Name: "servedblock",
	Doc:  "a handler passed to Clock.Serve must not reach Clock.Sleep or Mailbox.Recv",
	Run:  runServedBlock,
}

func runServedBlock(pass *Pass) {
	fx := pass.Facts
	if fx == nil {
		return
	}
	var entries []types.Object
	var literals []*ast.FuncLit
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Serve" {
				return true
			}
			switch h := call.Args[len(call.Args)-1].(type) {
			case *ast.FuncLit:
				literals = append(literals, h)
			case *ast.Ident:
				entries = append(entries, funcObj(pass, h))
			case *ast.SelectorExpr:
				entries = append(entries, funcObj(pass, h.Sel))
			}
			return true
		})
	}
	if len(entries) == 0 && len(literals) == 0 {
		return
	}

	graph := fx.CallGraph()
	values := fx.funcValues()
	// Worklist over served contexts: declared functions and literals.
	seenObj := make(map[types.Object]bool)
	seenLit := make(map[*ast.FuncLit]bool)
	// A literal is walked both inline in its enclosing function and as a
	// value candidate; each call site is reported once.
	reported := make(map[token.Pos]bool)
	var stack []funcValue
	push := func(fv funcValue) {
		switch {
		case fv.lit != nil && !seenLit[fv.lit]:
			seenLit[fv.lit] = true
			stack = append(stack, fv)
		case fv.lit == nil && graph.decls[fv.obj] != nil && !seenObj[fv.obj]:
			seenObj[fv.obj] = true
			stack = append(stack, fv)
		}
	}
	for _, obj := range entries {
		push(funcValue{obj: obj})
	}
	for _, lit := range literals {
		push(funcValue{lit: lit})
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var body ast.Node = cur.lit
		name := "a function literal"
		if cur.lit == nil {
			body, name = graph.decls[cur.obj].Body, cur.obj.Name()
		}
		for _, obj := range fx.callees(body) {
			push(funcValue{obj: obj})
		}
		for _, fv := range walkServed(pass, body, name, values, reported) {
			push(fv)
		}
	}
}

// funcObj resolves an identifier to the declared function it names, or
// nil (a variable, a field, an unresolved name).
func funcObj(pass *Pass, id *ast.Ident) types.Object {
	if fn, ok := pass.Info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// walkServed vets one served context. It flags the blocking calls made
// directly in body and returns the functions body may reach through
// func-typed variables and fields — every value-used function whose
// signature is identical to the variable's. What body hands to a
// goroutine spawn is skipped, as in callees.
func walkServed(pass *Pass, body ast.Node, name string, values []funcValue, reported map[token.Pos]bool) []funcValue {
	var dynamic []funcValue
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				if spawnCallees[fun.Sel.Name] {
					ast.Inspect(fun, walk)
					return false
				}
				if servedBlocking[fun.Sel.Name] && !reported[x.Pos()] {
					reported[x.Pos()] = true
					pass.Reportf(x.Pos(), "servedblock",
						"%s is reachable from a Clock.Serve handler (in %s): a served handler runs to completion on the goroutine advancing the clock and must not block on it — move the wait to a Clock.Go goroutine that sends its result back",
						exprString(pass.Fset, x.Fun), name)
				}
				id = fun.Sel
			default:
				return true
			}
			v, ok := pass.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			sig, ok := v.Type().Underlying().(*types.Signature)
			if !ok {
				return true
			}
			for _, fv := range values {
				if types.Identical(sig, fv.sig) {
					dynamic = append(dynamic, fv)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return dynamic
}

// funcValue is one function that is used as a value — a declared
// function (obj) or a function literal (lit) — with its signature
// stripped of the receiver.
type funcValue struct {
	obj types.Object
	lit *ast.FuncLit
	sig *types.Signature
}

// funcValues returns, in source order, the package's functions that are
// used as values (assigned, stored, passed — anything but called on the
// spot): the candidates a call through a func-typed variable may reach.
// Functions handed to a goroutine spawn are not candidates — they run
// on their own goroutine, which may block — and neither are Serve's
// handlers, which are entries already.
func (fx *Facts) funcValues() []funcValue {
	var out []funcValue
	seen := make(map[types.Object]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// The called expression is a call, not a value use; its
			// receiver and the arguments still are walked.
			switch fun := x.Fun.(type) {
			case *ast.Ident, *ast.FuncLit:
			case *ast.SelectorExpr:
				ast.Inspect(fun.X, walk)
				if spawnCallees[fun.Sel.Name] || fun.Sel.Name == "Serve" {
					return false
				}
			default:
				ast.Inspect(fun, walk)
			}
			for _, arg := range x.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if sig, ok := fx.info.TypeOf(x).(*types.Signature); ok {
				out = append(out, funcValue{lit: x, sig: sig})
			}
		case *ast.Ident:
			if fn, ok := fx.info.Uses[x].(*types.Func); ok && !seen[fn] {
				seen[fn] = true
				sig := fn.Type().(*types.Signature)
				out = append(out, funcValue{obj: fn,
					sig: types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())})
			}
		}
		return true
	}
	for _, f := range fx.files {
		ast.Inspect(f, walk)
	}
	return out
}
