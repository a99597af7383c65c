// Package analysis implements xflow-vet, crossflow's project-specific
// static-analysis pass. The determinism story of the whole reproduction
// — that a simulated run is repeatable bit-for-bit and that simulated
// and live execution share one engine — rests on invariants of the
// internal/vclock time kernel that the compiler cannot enforce:
//
//   - all waiting goes through vclock.Clock (never package time),
//   - all goroutines are started through Clock.Go (never a bare go
//     statement), so the simulated clock can tell "everyone is blocked"
//     from "someone is still running",
//   - all randomness flows through seeded *rand.Rand values (never the
//     global math/rand generator),
//   - no blocking operation happens while holding a mutex (a deadlock
//     the discrete-event clock turns fatal: time cannot advance while a
//     tracked goroutine is blocked outside the clock),
//   - a handler served run-to-completion by the clock (Clock.Serve)
//     never itself waits on the clock,
//   - errors are not silently dropped inside internal packages.
//
// Each invariant is checked by one Analyzer. The driver (Check) loads
// every package in the module with go/parser + go/types — stdlib only,
// no external dependencies — runs the analyzers, and reports findings
// as "file:line:col: [rule] message".
//
// A finding can be suppressed by placing a
//
//	//xflow:allow <rule>[,<rule>...] [reason]
//
// comment on the offending line or on the line directly above it.
// Suppressions should carry a justification; they are for the rare
// sites that are genuinely exempt (e.g. wall-clock instrumentation in a
// benchmark harness), not for silencing real violations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import path of the module this tool vets. The
// analyzers key their package scoping off it.
const ModulePath = "crossflow"

// clockMediated lists the packages whose code runs on a vclock.Clock
// and therefore must never touch package time or start bare goroutines.
// internal/vclock itself and internal/transport are deliberately
// absent: the former implements the clock, the latter bridges to real
// TCP deployments and owns its wall-time waits.
var clockMediated = map[string]bool{
	ModulePath + "/internal/engine":      true,
	ModulePath + "/internal/core":        true,
	ModulePath + "/internal/broker":      true,
	ModulePath + "/internal/gitsim":      true,
	ModulePath + "/internal/netsim":      true,
	ModulePath + "/internal/msr":         true,
	ModulePath + "/internal/cluster":     true,
	ModulePath + "/internal/experiments": true,
	ModulePath + "/internal/simtest":     true,
}

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset *token.FileSet
	// Files are the package's parsed sources (tests excluded).
	Files []*ast.File
	// PkgPath is the package's import path; the package-scoped
	// analyzers (walltime, untrackedgo, lockedsend) consult it.
	PkgPath string
	// Pkg and Info hold type information. Info may be partially
	// populated when an import could not be fully resolved; analyzers
	// must degrade gracefully (skip, never guess) on nil type info.
	Pkg  *types.Package
	Info *types.Info
	// Facts is the shared fact layer: //xflow: directives and
	// type-derived protocol/ownership facts, computed once per package
	// and shared by every analyzer in the run.
	Facts *Facts

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// pkgName resolves an identifier to the import path of the package it
// names, or "" if it does not name an imported package. This is how
// analyzers tell `time.Now` (package selector) from `time.Now` where
// `time` is a local variable.
func (p *Pass) pkgName(id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WallTime,
		UntrackedGo,
		GlobalRand,
		LockedSend,
		ErrDrop,
		MapOrder,
		MsgExhaustive,
		LoopOwned,
		ServedBlock,
	}
}

// ByName resolves a comma-separated rule list against All. An unknown
// name is an error (a typo would otherwise silently vet nothing).
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Check loads every package of the module rooted at root (dir
// containing go.mod) and runs the analyzers over each. Findings
// suppressed by //xflow:allow comments are filtered out; the remainder
// come back sorted by position.
func Check(root string, analyzers []*Analyzer) ([]Finding, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.loadAll()
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, cp := range pkgs {
		findings = append(findings, checkPackage(l.fset, cp, analyzers, true)...)
	}
	sortFindings(findings)
	return findings, nil
}

// CheckDir vets the single package in dir as though its import path
// were asPath. This is how the golden fixtures are driven (a fixture
// directory is vetted "as" a clock-mediated package) and how a
// one-off directory can be checked without loading the whole module.
func CheckDir(dir, asPath string, analyzers []*Analyzer) ([]Finding, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    abs,
		modpath: ModulePath,
		pkgs:    make(map[string]*checkedPkg),
		loading: make(map[string]bool),
	}
	cp, err := l.checkDir(abs, asPath)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	findings := checkPackage(fset, cp, analyzers, false)
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// checkPackage runs the analyzers over one loaded package, applies
// suppression comments, and — when audit is set — flags stale
// suppressions. The audit runs on module checks (Check) but not on
// fixture/one-off directories (CheckDir): fixtures deliberately carry
// suppressions for rules a scoped run may not fire.
func checkPackage(fset *token.FileSet, cp *checkedPkg, analyzers []*Analyzer, audit bool) []Finding {
	var findings []Finding
	pass := &Pass{
		Fset:     fset,
		Files:    cp.files,
		PkgPath:  cp.path,
		Pkg:      cp.pkg,
		Info:     cp.info,
		Facts:    computeFacts(fset, cp.files, cp.info),
		findings: &findings,
	}
	for _, a := range analyzers {
		a.Run(pass)
	}
	kept, sites := filterSuppressed(pass.Facts, findings)
	if !audit {
		return kept
	}
	// Stale-suppression audit: an //xflow:allow naming a rule that ran
	// in this check but matched no finding at its site is dead weight —
	// either the violation was fixed (delete the comment) or the comment
	// drifted away from the line it excuses (it no longer protects
	// anything). Only rules in the active analyzer set are audited, so
	// a scoped -rules run never calls other rules' suppressions stale.
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, s := range sites {
		for _, r := range s.rules {
			if active[r] && !s.used[r] {
				kept = append(kept, Finding{
					Pos:  fset.Position(s.d.pos),
					Rule: "stalesuppress",
					Msg:  fmt.Sprintf("stale suppression: rule %q no longer fires on this line; remove it from the //xflow:allow", r),
				})
			}
		}
	}
	return kept
}

// parseAllow parses an "//xflow:allow rule[,rule...] [reason]" comment.
func parseAllow(text string) (rules []string, ok bool) {
	d, ok := parseDirective(text)
	if !ok || d.verb != "allow" || len(d.args) == 0 {
		return nil, false
	}
	rules = splitList(d.args[0])
	return rules, len(rules) > 0
}

// allowSite is one //xflow:allow comment, with per-rule usage tracking
// for the stale-suppression audit.
type allowSite struct {
	d     *directive
	rules []string
	used  map[string]bool
}

// filterSuppressed drops findings covered by an //xflow:allow comment
// on the same line or the line directly above, and returns the allow
// sites with the rules each one actually suppressed marked used.
func filterSuppressed(fx *Facts, findings []Finding) ([]Finding, []*allowSite) {
	var sites []*allowSite
	byLine := make(map[string]map[int][]*allowSite)
	for _, d := range fx.all("allow") {
		if len(d.args) == 0 {
			continue
		}
		rules := splitList(d.args[0])
		if len(rules) == 0 {
			continue
		}
		s := &allowSite{d: d, rules: rules, used: make(map[string]bool)}
		sites = append(sites, s)
		m := byLine[d.file]
		if m == nil {
			m = make(map[int][]*allowSite)
			byLine[d.file] = m
		}
		m[d.line] = append(m[d.line], s)
	}

	out := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, s := range byLine[f.Pos.Filename][line] {
				for _, r := range s.rules {
					if r == f.Rule {
						s.used[r] = true
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	return out, sites
}
