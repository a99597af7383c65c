package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// LoopOwned enforces goroutine ownership of struct fields, the static
// complement to the race detector. Fields annotated
//
//	//xflow:owned <domain>            confined to one execution domain
//	//xflow:owned mu=<field>          guarded by a named mutex
//	//xflow:owned <domain> mu=<field> either suffices
//
// may only be accessed from an allowed context. An execution domain is
// declared by //xflow:goroutine <domain> annotations on function
// declarations — the event loop itself, plus code mutually excluded
// with it (constructors that run before the loop starts, accessors that
// run after it exits). A function is in the domain when it carries the
// annotation or is reachable from an annotated function through the
// package call graph — excluding goroutine-spawn edges: a closure
// handed to Clock.Go or AfterFunc runs concurrently with its creator,
// so it never inherits the creator's domain and must qualify on its own
// (in practice by locking the mutex, as the worker's requeue timer
// does). A handler handed to Clock.Serve is the opposite case — it is
// the loop — so Serve is deliberately not a spawn edge: a method
// handler is a domain entry like any other (it carries its own
// //xflow:goroutine annotation), and a literal handler is vetted in the
// context of the function that installs it.
//
// The mutex rule is function-granular: a context qualifies when it
// contains a <recv>.<field>.Lock() or RLock() call. That is coarser
// than region analysis but matches how this codebase writes guarded
// methods (lock at the top, defer or early unlock), and it is exactly
// the invariant a reviewer checks by eye today.
var LoopOwned = &Analyzer{
	Name: "loopowned",
	Doc:  "fields annotated //xflow:owned may only be accessed from their goroutine's domain or under their mutex",
	Run:  runLoopOwned,
}

func runLoopOwned(pass *Pass) {
	fx := pass.Facts
	if fx == nil {
		return
	}
	owned, goroutines := fx.OwnedFields()
	if len(owned) == 0 {
		return
	}

	fieldOf := make(map[types.Object]*ownedField)
	domains := make(map[string]bool)
	for _, f := range owned {
		if f.domain == "" && f.mutex == "" {
			pass.Reportf(f.pos, "loopowned",
				"//xflow:owned on %s needs a domain name or mu=<field>", f.name)
			continue
		}
		if f.obj != nil {
			fieldOf[f.obj] = f
		}
		if f.domain != "" {
			domains[f.domain] = true
		}
	}

	// Resolve each referenced domain to its reachable function set.
	graph := fx.CallGraph()
	inDomain := make(map[string]map[types.Object]bool)
	names := make([]string, 0, len(domains))
	for d := range domains {
		names = append(names, d)
	}
	sort.Strings(names)
	for _, d := range names {
		decls := goroutines[d]
		if len(decls) == 0 {
			for _, f := range owned {
				if f.domain == d {
					pass.Reportf(f.pos, "loopowned",
						"field %s is owned by domain %q but no function is annotated //xflow:goroutine %s", f.name, d, d)
				}
			}
			continue
		}
		entries := make([]types.Object, 0, len(decls))
		for _, fd := range decls {
			entries = append(entries, fx.info.Defs[fd.Name])
		}
		inDomain[d] = graph.reach(entries)
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := fx.info.Defs[fd.Name]
			checkOwnedContext(pass, fd.Body, fd.Name.Name, obj, fieldOf, inDomain)
		}
	}
}

// checkOwnedContext vets one execution context: a function body, or the
// body of a goroutine-spawned function literal (which gets its own call
// with obj == nil, since a spawned closure belongs to no domain).
func checkOwnedContext(pass *Pass, body ast.Node, name string, obj types.Object, fieldOf map[types.Object]*ownedField, inDomain map[string]map[types.Object]bool) {
	locked := lockedMutexes(body)
	var spawned []*ast.FuncLit

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				spawned = append(spawned, lit)
			}
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && spawnCallees[sel.Sel.Name] {
				ast.Inspect(sel, func(n ast.Node) bool { return walk(n) })
				for _, arg := range x.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						spawned = append(spawned, lit)
					} else {
						ast.Inspect(arg, func(n ast.Node) bool { return walk(n) })
					}
				}
				return false
			}
		case *ast.SelectorExpr:
			f := selectedOwned(pass, x, fieldOf)
			if f == nil {
				return true
			}
			if f.mutex != "" && locked[f.mutex] {
				return true
			}
			if f.domain != "" && obj != nil && inDomain[f.domain][obj] {
				return true
			}
			pass.Reportf(x.Sel.Pos(), "loopowned", ownedMsg(f, name))
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n) })

	for _, lit := range spawned {
		checkOwnedContext(pass, lit.Body, name+" (spawned closure)", nil, fieldOf, inDomain)
	}
}

func ownedMsg(f *ownedField, ctx string) string {
	switch {
	case f.domain != "" && f.mutex != "":
		return "field " + f.name + " is owned by domain " + f.domain + " (or mutex " + f.mutex + ") but " + ctx +
			" is not in that domain and does not lock " + f.mutex
	case f.domain != "":
		return "field " + f.name + " is owned by domain " + f.domain + " but " + ctx +
			" is not reachable from an //xflow:goroutine " + f.domain + " function"
	default:
		return "field " + f.name + " is guarded by mutex " + f.mutex + " but " + ctx +
			" does not lock it"
	}
}

// selectedOwned resolves a selector to an annotated field, or nil.
func selectedOwned(pass *Pass, sel *ast.SelectorExpr, fieldOf map[types.Object]*ownedField) *ownedField {
	if obj := pass.Info.Uses[sel.Sel]; obj != nil {
		return fieldOf[obj]
	}
	if s, ok := pass.Info.Selections[sel]; ok {
		return fieldOf[s.Obj()]
	}
	return nil
}

// lockedMutexes scans one execution context for <x>.<field>.Lock() /
// RLock() calls and returns the set of locked mutex field names.
// Goroutine-spawned literals inside the context are excluded: a lock
// taken by a detached timer callback is no license for its creator.
func lockedMutexes(body ast.Node) map[string]bool {
	locked := make(map[string]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if spawnCallees[sel.Sel.Name] {
					ast.Inspect(sel, func(n ast.Node) bool { return walk(n) })
					return false
				}
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
					switch mu := sel.X.(type) {
					case *ast.SelectorExpr:
						locked[mu.Sel.Name] = true
					case *ast.Ident:
						locked[mu.Name] = true
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n) })
	return locked
}
