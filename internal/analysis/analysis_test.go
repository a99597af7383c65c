package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureFindings type-checks the fixture package in testdata/src/<dir>
// under an assumed import path (so package-scoped analyzers fire) and
// runs one analyzer over it, with suppressions applied — exactly the
// pipeline `xflow-vet -dir <dir> -as <path>` uses.
func fixtureFindings(t *testing.T, a *Analyzer, dir, pkgPath string) []Finding {
	t.Helper()
	findings, err := CheckDir(dir, pkgPath, []*Analyzer{a})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return findings
}

// wantMarkers collects the expected findings declared inline in the
// fixture sources as "// want <rule>[ <rule>...]" comments, keyed
// "file:line:rule".
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, rule := range strings.Fields(line[idx+len("// want "):]) {
				out[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, rule)]++
			}
		}
	}
	return out
}

func findingKeys(findings []Finding) map[string]int {
	out := make(map[string]int)
	for _, f := range findings {
		out[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
	}
	return out
}

// TestAnalyzerFixtures drives every analyzer over its golden fixture
// directory: each "// want" marker must produce exactly one finding,
// nothing else may fire, and //xflow:allow-suppressed sites (which
// carry no markers) must stay silent.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
		pkgPath  string
	}{
		// The package-scoped analyzers are handed a clock-mediated /
		// internal import path so they treat the fixture as in-scope.
		{WallTime, "walltime", ModulePath + "/internal/engine"},
		{UntrackedGo, "untrackedgo", ModulePath + "/internal/broker"},
		{GlobalRand, "globalrand", ModulePath + "/internal/core"},
		{LockedSend, "lockedsend", ModulePath + "/internal/core"},
		{ErrDrop, "errdrop", ModulePath + "/internal/msr"},
		// The protocol-aware analyzers are annotation-gated rather than
		// package-gated; the import path is arbitrary.
		{MapOrder, "maporder", ModulePath + "/internal/engine"},
		{MsgExhaustive, "msgexhaustive", ModulePath + "/internal/engine"},
		{LoopOwned, "loopowned", ModulePath + "/internal/engine"},
		{ServedBlock, "servedblock", ModulePath + "/internal/engine"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			got := findingKeys(fixtureFindings(t, tc.analyzer, dir, tc.pkgPath))
			want := wantMarkers(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s declares no expected findings", dir)
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("expected %d finding(s) at %s, got %d", n, k, got[k])
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("unexpected finding at %s (x%d)", k, n)
				}
			}
		})
	}
}

// TestPackageScoping checks the package-set gating: the same fixture
// that fires inside a clock-mediated package is silent outside one.
func TestPackageScoping(t *testing.T) {
	for _, tc := range []struct {
		analyzer *Analyzer
		dir      string
	}{
		{WallTime, "walltime"},
		{UntrackedGo, "untrackedgo"},
		{LockedSend, "lockedsend"},
	} {
		dir := filepath.Join("testdata", "src", tc.dir)
		if got := fixtureFindings(t, tc.analyzer, dir, ModulePath+"/internal/transport"); len(got) != 0 {
			t.Errorf("%s fired in non-clock-mediated package: %v", tc.analyzer.Name, got)
		}
	}
	dir := filepath.Join("testdata", "src", "errdrop")
	if got := fixtureFindings(t, ErrDrop, dir, ModulePath); len(got) != 0 {
		t.Errorf("errdrop fired outside internal/...: %v", got)
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//xflow:allow walltime", []string{"walltime"}},
		{"//xflow:allow walltime,errdrop some reason", []string{"walltime", "errdrop"}},
		{"//xflow:allow", nil},
		{"// xflow:allow walltime", nil}, // space before directive: not a directive
		{"// regular comment", nil},
	}
	for _, tc := range cases {
		got, ok := parseAllow(tc.text)
		if ok != (tc.want != nil) {
			t.Errorf("parseAllow(%q) ok = %v", tc.text, ok)
			continue
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("parseAllow(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

// auditFindings runs analyzers over a fixture directory with the
// stale-suppression audit enabled — the configuration Check uses for
// module runs, which CheckDir deliberately does not apply.
func auditFindings(t *testing.T, dir, pkgPath string, analyzers []*Analyzer) []Finding {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    abs,
		modpath: ModulePath,
		pkgs:    make(map[string]*checkedPkg),
		loading: make(map[string]bool),
	}
	cp, err := l.checkDir(abs, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings := checkPackage(fset, cp, analyzers, true)
	sortFindings(findings)
	return findings
}

// TestStaleSuppressionAudit checks the three audit behaviors: a used
// suppression stays silent, an unused one for an active rule is
// flagged, and an unused one for a rule outside the analyzer set is
// left alone until that rule actually runs.
func TestStaleSuppressionAudit(t *testing.T) {
	dir := filepath.Join("testdata", "src", "stalesuppress")
	pkg := ModulePath + "/internal/engine"

	got := auditFindings(t, dir, pkg, []*Analyzer{MapOrder})
	if len(got) != 1 || got[0].Rule != "stalesuppress" {
		t.Fatalf("maporder-only audit = %v, want exactly one stalesuppress finding", got)
	}
	if !strings.Contains(got[0].Msg, `"maporder"`) {
		t.Errorf("stale finding names the wrong rule: %s", got[0].Msg)
	}

	got = auditFindings(t, dir, pkg, []*Analyzer{MapOrder, WallTime})
	if len(got) != 2 {
		t.Fatalf("maporder+walltime audit = %v, want two stalesuppress findings", got)
	}
	for _, f := range got {
		if f.Rule != "stalesuppress" {
			t.Errorf("unexpected rule %s: %s", f.Rule, f.Msg)
		}
	}

	// The fixture pipeline (no audit) must not flag anything: the same
	// directory is clean under CheckDir, which is what keeps fixture
	// suppressions for scoped runs legal.
	if got := fixtureFindings(t, MapOrder, dir, pkg); len(got) != 0 {
		t.Errorf("CheckDir applied the audit: %v", got)
	}
}

// TestUnhandledDirectiveErrors covers the //xflow:unhandled grammar
// findings that cannot carry inline "// want" markers (a marker would
// itself become the directive's reason text).
func TestUnhandledDirectiveErrors(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

//xflow:msg delta
type MsgDeltaOne struct{}

//xflow:msg delta
type MsgDeltaTwo struct{}

func dispatchDelta(v any) {
	//xflow:dispatch delta
	switch v.(type) {
	case MsgDeltaOne:
	default:
		//xflow:unhandled MsgDeltaTwo
		//xflow:unhandled MsgTypo listed kind does not exist
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := CheckDir(dir, ModulePath+"/internal/engine", []*Analyzer{MsgExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d:%s", f.Pos.Line, f.Rule))
	}
	// Line 14: missing reason; line 15: unknown kind. The reasonless
	// directive still excuses MsgDeltaTwo, so no missing-kind finding.
	want := []string{"14:msgexhaustive", "15:msgexhaustive"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("directive errors = %v, want %v", got, want)
	}
}

func TestParseOwnedArgs(t *testing.T) {
	cases := []struct {
		args          []string
		domain, mutex string
	}{
		{[]string{"looper"}, "looper", ""},
		{[]string{"mu=mu"}, "", "mu"},
		{[]string{"looper", "mu=mu"}, "looper", "mu"},
		{[]string{"looper", "mu=mu", "either", "suffices"}, "looper", "mu"},
		{[]string{"mu=mu", "(running", "sum)"}, "", "mu"},
		{[]string{"looper", "reason", "mu=notamutex"}, "looper", ""},
		{nil, "", ""},
	}
	for _, tc := range cases {
		domain, mutex := parseOwnedArgs(tc.args)
		if domain != tc.domain || mutex != tc.mutex {
			t.Errorf("parseOwnedArgs(%v) = (%q, %q), want (%q, %q)",
				tc.args, domain, mutex, tc.domain, tc.mutex)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	subset, err := ByName("walltime, errdrop")
	if err != nil || len(subset) != 2 || subset[0].Name != "walltime" || subset[1].Name != "errdrop" {
		t.Fatalf("ByName subset = %v, err %v", subset, err)
	}
	if _, err := ByName("walltime,nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}
