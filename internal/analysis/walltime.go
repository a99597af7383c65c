package analysis

import (
	"go/ast"
)

// wallTimeBanned lists the package time functions that read or wait on
// the operating-system clock. Pure data types and constructors
// (time.Duration, time.Date, time.Unix, …) are fine — they carry
// instants around without consulting the wall clock.
var wallTimeBanned = map[string]string{
	"Now":       "Clock.Now",
	"Sleep":     "Clock.Sleep",
	"After":     "Clock.SendAfter or Clock.Sleep",
	"AfterFunc": "Clock.AfterFunc",
	"Tick":      "Clock.SendAfter re-armed on receipt",
	"NewTimer":  "Clock.AfterFunc",
	"NewTicker": "Clock.AfterFunc",
	"Since":     "Clock.Since",
	"Until":     "a vclock.Clock",
}

// WallTime forbids wall-clock reads and waits in clock-mediated
// packages. Engine code that calls time.Now or time.Sleep observes the
// host machine instead of the vclock.Clock it runs on: under the
// simulated clock the call returns nonsense (or stalls the
// discrete-event loop), and the run stops being repeatable.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now/Sleep/After/Tick etc. in clock-mediated packages; use vclock.Clock",
	Run:  runWallTime,
}

func runWallTime(pass *Pass) {
	if !clockMediated[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pass.pkgName(id) != "time" {
				return true
			}
			if repl, banned := wallTimeBanned[sel.Sel.Name]; banned {
				pass.Reportf(sel.Pos(), "walltime",
					"time.%s reads the wall clock; this package runs on a vclock.Clock — use %s",
					sel.Sel.Name, repl)
			}
			return true
		})
	}
}
