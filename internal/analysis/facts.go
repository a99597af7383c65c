package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the shared fact layer of the suite: every
// //xflow: directive in a package is parsed exactly once, and the
// type-derived facts the protocol-aware analyzers need (message-kind
// declarations, dispatch switches, goroutine-ownership annotations, the
// package-local call graph) are computed once per package and shared,
// instead of each analyzer re-walking the comment map and re-resolving
// the same declarations.
//
// The directive grammar (documented in DESIGN.md §7):
//
//	//xflow:allow <rule>[,<rule>...] [reason]
//	    suppress findings of the listed rules on this line or the next.
//	//xflow:msg <role>[,<role>...] [reason]
//	    on a message type declaration: the named dispatch roles must
//	    handle this kind.
//	//xflow:dispatch <role>
//	    directly above a type switch over message payloads: the switch
//	    is the named role's dispatch loop and must handle every kind
//	    annotated with that role.
//	//xflow:unhandled <Kind>[,<Kind>...] [reason]
//	    inside the default clause of a dispatch switch: the listed
//	    kinds are deliberately not handled there, for the given reason.
//	//xflow:goroutine <name>
//	    on a function declaration: the function executes in the named
//	    ownership domain (a goroutine, or code mutually excluded with
//	    it, such as constructors that run before the loop starts).
//	//xflow:owned <name>[ mu=<field>] | //xflow:owned mu=<field>
//	    on a struct field: only functions in (or reachable from) the
//	    named domain — or, when mu= names a mutex field, functions that
//	    lock that mutex — may access the field.
type directive struct {
	verb string   // "allow", "msg", "dispatch", "unhandled", "goroutine", "owned"
	args []string // whitespace-separated fields after the verb
	pos  token.Pos
	file string
	line int
}

// reasonAfter returns the free-text reason: everything after the first
// n argument fields.
func (d *directive) reasonAfter(n int) string {
	if len(d.args) <= n {
		return ""
	}
	return strings.Join(d.args[n:], " ")
}

// parseDirective parses one "//xflow:<verb> args..." comment. A bare
// "//xflow:<verb>" with no arguments still parses (the analyzers decide
// whether empty arguments are an error).
func parseDirective(text string) (*directive, bool) {
	rest, ok := strings.CutPrefix(text, "//xflow:")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	return &directive{verb: fields[0], args: fields[1:]}, true
}

// Facts carries the once-per-package shared state. Directives are
// eagerly collected; the heavier type-derived facts (message kinds,
// call graph, owned fields) are memoized on first use so packages
// without the relevant annotations pay nothing.
type Facts struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info

	directives []*directive
	byLine     map[string]map[int][]*directive

	msgKindsOnce bool
	msgKinds     []*msgKind

	callGraphOnce bool
	callGraph     *callGraph

	ownedOnce  bool
	owned      []*ownedField
	goroutines map[string][]*ast.FuncDecl
}

func computeFacts(fset *token.FileSet, files []*ast.File, info *types.Info) *Facts {
	fx := &Facts{
		fset:   fset,
		files:  files,
		info:   info,
		byLine: make(map[string]map[int][]*directive),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				d.pos, d.file, d.line = c.Pos(), p.Filename, p.Line
				fx.directives = append(fx.directives, d)
				m := fx.byLine[d.file]
				if m == nil {
					m = make(map[int][]*directive)
					fx.byLine[d.file] = m
				}
				m[p.Line] = append(m[p.Line], d)
			}
		}
	}
	// File map order must not leak into finding order.
	sort.Slice(fx.directives, func(i, j int) bool {
		a, b := fx.directives[i], fx.directives[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	return fx
}

// at returns the directives with the given verb on file:line.
func (fx *Facts) at(file string, line int, verb string) []*directive {
	var out []*directive
	for _, d := range fx.byLine[file][line] {
		if d.verb == verb {
			out = append(out, d)
		}
	}
	return out
}

// forNode returns the first directive with verb attached to the node:
// trailing on the node's first line, or on the line directly above it
// (the last line of a doc comment).
func (fx *Facts) forNode(n ast.Node, verb string) *directive {
	p := fx.fset.Position(n.Pos())
	for _, line := range []int{p.Line, p.Line - 1} {
		if ds := fx.at(p.Filename, line, verb); len(ds) > 0 {
			return ds[0]
		}
	}
	return nil
}

// within returns directives with verb positioned inside [lo, hi].
func (fx *Facts) within(lo, hi token.Pos, verb string) []*directive {
	var out []*directive
	for _, d := range fx.directives {
		if d.verb == verb && d.pos >= lo && d.pos <= hi {
			out = append(out, d)
		}
	}
	return out
}

// all returns every directive with the given verb, in file/line order.
func (fx *Facts) all(verb string) []*directive {
	var out []*directive
	for _, d := range fx.directives {
		if d.verb == verb {
			out = append(out, d)
		}
	}
	return out
}

// --- message-kind facts --------------------------------------------------

// msgKind is one protocol message type: a package-level type whose name
// matches the Msg*/msg* convention.
type msgKind struct {
	name  string
	obj   types.Object // the *types.TypeName, for case matching
	roles []string     // from //xflow:msg; nil when unannotated
	pos   token.Pos
}

// isMsgTypeName reports whether a type name follows the protocol
// message convention: "Msg" or "msg" followed by an upper-case letter.
func isMsgTypeName(name string) bool {
	rest, ok := strings.CutPrefix(name, "Msg")
	if !ok {
		rest, ok = strings.CutPrefix(name, "msg")
	}
	return ok && len(rest) > 0 && rest[0] >= 'A' && rest[0] <= 'Z'
}

// MsgKinds returns the package's protocol message declarations, in
// source order, computed once.
func (fx *Facts) MsgKinds() []*msgKind {
	if fx.msgKindsOnce {
		return fx.msgKinds
	}
	fx.msgKindsOnce = true
	for _, f := range fx.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !isMsgTypeName(ts.Name.Name) {
					continue
				}
				k := &msgKind{name: ts.Name.Name, obj: fx.info.Defs[ts.Name], pos: ts.Pos()}
				if d := fx.forNode(ts, "msg"); d != nil && len(d.args) > 0 {
					k.roles = splitList(d.args[0])
				} else if d := fx.forNode(gd, "msg"); d != nil && len(d.args) > 0 {
					// Single-spec declaration with the directive on the doc
					// comment above the "type" keyword.
					k.roles = splitList(d.args[0])
				}
				fx.msgKinds = append(fx.msgKinds, k)
			}
		}
	}
	return fx.msgKinds
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// --- ownership facts -----------------------------------------------------

// ownedField is one //xflow:owned struct field.
type ownedField struct {
	obj    types.Object // the field *types.Var
	name   string
	domain string // "" when mutex-only
	mutex  string // "" when domain-only
	pos    token.Pos
}

// OwnedFields returns the package's annotated fields and the map of
// ownership-domain names to the functions declared to run in them,
// computed once.
func (fx *Facts) OwnedFields() ([]*ownedField, map[string][]*ast.FuncDecl) {
	if fx.ownedOnce {
		return fx.owned, fx.goroutines
	}
	fx.ownedOnce = true
	fx.goroutines = make(map[string][]*ast.FuncDecl)
	for _, f := range fx.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if d := fx.forNode(node, "goroutine"); d != nil && len(d.args) > 0 {
					name := d.args[0]
					fx.goroutines[name] = append(fx.goroutines[name], node)
				}
				return false // fields only occur at package level here
			case *ast.StructType:
				for _, field := range node.Fields.List {
					d := fx.fieldDirective(field)
					if d == nil {
						continue
					}
					domain, mutex := parseOwnedArgs(d.args)
					for _, name := range field.Names {
						fx.owned = append(fx.owned, &ownedField{
							obj:    fx.info.Defs[name],
							name:   name.Name,
							domain: domain,
							mutex:  mutex,
							pos:    field.Pos(),
						})
					}
				}
			}
			return true
		})
	}
	return fx.owned, fx.goroutines
}

// fieldDirective finds an //xflow:owned directive on a struct field:
// its doc comment or its trailing line comment. No line-above fallback
// here — a standalone comment above a field already parses as its Doc,
// so the only thing a positional fallback could match is the previous
// field's trailing comment, which must not leak downward.
func (fx *Facts) fieldDirective(field *ast.Field) *directive {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseDirective(c.Text); ok && d.verb == "owned" {
				p := fx.fset.Position(c.Pos())
				d.pos, d.file, d.line = c.Pos(), p.Filename, p.Line
				return d
			}
		}
	}
	return nil
}

// parseOwnedArgs splits //xflow:owned arguments into the domain name
// and the mu=<field> mutex escape. The grammar is positional — an
// optional domain, then an optional mu= — so everything after those
// slots is free-text reason, never mistaken for a second domain.
func parseOwnedArgs(args []string) (domain, mutex string) {
	i := 0
	if i < len(args) && !strings.HasPrefix(args[i], "mu=") {
		domain = args[i]
		i++
	}
	if i < len(args) {
		if rest, ok := strings.CutPrefix(args[i], "mu="); ok {
			mutex = rest
		}
	}
	return domain, mutex
}

// --- package-local call graph -------------------------------------------

// callGraph is a conservative static call graph over the package's
// declared functions. An edge A→B exists when A's body references B
// outside of a goroutine-spawning argument: function values handed to
// Go/AfterFunc (and go statements) run on other goroutines, so they do
// not extend A's execution context.
type callGraph struct {
	decls map[types.Object]*ast.FuncDecl
	edges map[types.Object][]types.Object
}

// spawnCallees lists the method names whose function-typed arguments
// run on a different goroutine (vclock.Clock.Go / AfterFunc and the
// stdlib time equivalents). Clock.Serve is not among them: its handler
// is a loop's body, not a goroutine beside it (see LoopOwned and
// ServedBlock).
var spawnCallees = map[string]bool{"Go": true, "AfterFunc": true}

// CallGraph returns the package call graph, computed once.
func (fx *Facts) CallGraph() *callGraph {
	if fx.callGraphOnce {
		return fx.callGraph
	}
	fx.callGraphOnce = true
	g := &callGraph{
		decls: make(map[types.Object]*ast.FuncDecl),
		edges: make(map[types.Object][]types.Object),
	}
	for _, f := range fx.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := fx.info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			g.decls[obj] = fd
		}
	}
	for obj, fd := range g.decls {
		g.edges[obj] = fx.callees(fd.Body)
	}
	fx.callGraph = g
	return g
}

// callees collects the package functions referenced in body, skipping
// arguments of goroutine-spawning calls and the bodies of go
// statements (those run elsewhere; their own accesses are judged on
// their own merits).
func (fx *Facts) callees(body ast.Node) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && spawnCallees[sel.Sel.Name] {
				// The callee expression itself still evaluates here, but
				// every argument (the spawned function and its inputs) is
				// detached from this context.
				ast.Inspect(sel, func(n ast.Node) bool { return walk(n) })
				return false
			}
		case *ast.Ident:
			if obj := fx.info.Uses[x]; obj != nil && !seen[obj] {
				if _, isFunc := obj.(*types.Func); isFunc {
					seen[obj] = true
					out = append(out, obj)
				}
			}
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n) })
	return out
}

// reach returns the set of functions reachable from the entry objects.
func (g *callGraph) reach(entries []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	var stack []types.Object
	for _, e := range entries {
		if e != nil && !seen[e] {
			seen[e] = true
			stack = append(stack, e)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.edges[cur] {
			if _, declared := g.decls[next]; declared && !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}
