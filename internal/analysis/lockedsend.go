package analysis

import (
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"
)

// lockedBlocking lists method names that block the calling goroutine
// through the clock (or a sync.WaitGroup — the same hazard). Mailbox
// Send/TryRecv are absent: they never block by contract.
var lockedBlocking = map[string]bool{
	"Sleep": true,
	"Recv":  true,
	"Wait":  true,
}

// LockedSend flags blocking operations performed while a mutex is
// held: channel sends/receives, select statements, and calls to
// blocking Clock/Mailbox methods between mu.Lock() and the matching
// mu.Unlock() (or under a defer mu.Unlock()). On the simulated clock
// this shape is fatal rather than merely slow: the blocked goroutine
// holds the lock, every goroutine that needs the lock is blocked
// outside the clock's accounting, and the discrete-event loop
// diagnoses a deadlock (or worse, advances time past the stall).
//
// The analysis is intra-procedural and deliberately conservative:
// branches are assumed not to release the lock for the code that
// follows them (the common `if cond { mu.Unlock(); return }` shape
// keeps the lock held on the fall-through path it guards). Function
// literals are analyzed separately with a clean slate — their bodies
// run on other goroutines or after the enclosing frame unlocks.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "flag channel ops and blocking Clock/Mailbox calls made while holding a mutex",
	Run:  runLockedSend,
}

func runLockedSend(pass *Pass) {
	if !clockMediated[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &lockWalker{pass: pass, held: map[string]bool{}}
					w.stmts(fn.Body.List)
				}
			case *ast.FuncLit:
				w := &lockWalker{pass: pass, held: map[string]bool{}}
				w.stmts(fn.Body.List)
			}
			return true // descend: nested literals get their own walker
		})
	}
}

// lockWalker tracks which mutexes are held along a statement walk.
type lockWalker struct {
	pass *Pass
	held map[string]bool
}

func (w *lockWalker) clone() *lockWalker {
	c := &lockWalker{pass: w.pass, held: make(map[string]bool, len(w.held))}
	for k, v := range w.held {
		c.held[k] = v
	}
	return c
}

func (w *lockWalker) heldNames() string {
	var names []string
	for k := range w.held {
		names = append(names, k)
	}
	sort.Strings(names) // stable message regardless of map order
	return strings.Join(names, ", ")
}

// stmts walks a statement list in order, updating lock state.
func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if recv, kind := mutexOp(st.X); kind != 0 {
			if kind > 0 {
				w.held[recv] = true
			} else {
				delete(w.held, recv)
			}
			return
		}
		w.checkExpr(st.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; any
		// other deferred call runs after this frame, outside our scope.
	case *ast.SendStmt:
		if len(w.held) > 0 {
			w.report(st.Pos(), "channel send")
		}
		w.checkExpr(st.Value)
	case *ast.GoStmt:
		// The spawned goroutine does not hold this frame's locks; its
		// body is analyzed separately. Arguments evaluate here, though.
		for _, a := range st.Call.Args {
			w.checkExpr(a)
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.checkExpr(e)
		}
		for _, e := range st.Lhs {
			w.checkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.checkExpr(e)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.checkExpr(st.Cond)
		w.clone().stmts(st.Body.List)
		if st.Else != nil {
			w.clone().stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.checkExpr(st.Cond)
		}
		w.clone().stmts(st.Body.List)
	case *ast.RangeStmt:
		w.checkExpr(st.X)
		w.clone().stmts(st.Body.List)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Tag != nil {
			w.checkExpr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		if len(w.held) > 0 {
			w.report(st.Pos(), "select over channel operations")
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IncDecStmt:
		w.checkExpr(st.X)
	}
}

// checkExpr flags blocking operations inside e when a lock is held.
// Function literals are skipped — they are analyzed on their own.
func (w *lockWalker) checkExpr(e ast.Expr) {
	if e == nil || len(w.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.report(x.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && lockedBlocking[sel.Sel.Name] {
				w.report(x.Pos(), "blocking call "+exprString(w.pass.Fset, x.Fun))
			}
		}
		return true
	})
}

func (w *lockWalker) report(pos token.Pos, what string) {
	w.pass.Reportf(pos, "lockedsend",
		"%s while holding %s; a blocked lock-holder stalls the discrete-event clock — release the lock first",
		what, w.heldNames())
}

// mutexOp classifies e as a lock acquire (+1), release (-1), or
// neither (0), returning the receiver expression as a stable string.
func mutexOp(e ast.Expr) (recv string, kind int) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", 0
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	default:
		return "", 0
	}
	return exprString(token.NewFileSet(), sel.X), kind
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "?"
	}
	return b.String()
}
