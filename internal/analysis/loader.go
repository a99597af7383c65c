package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// loader parses and type-checks every package of one module using only
// the standard library. Imports inside the module are resolved by
// recursively type-checking the corresponding directory; standard-
// library imports go through the source importer. When an import cannot
// be resolved (srcimporter has a few known blind spots), the loader
// substitutes an empty placeholder package rather than failing: the
// analyzers only need accurate *package identity* (which import path an
// identifier names) everywhere, and full signatures opportunistically.
type loader struct {
	fset    *token.FileSet
	root    string                 // module root directory (contains go.mod)
	modpath string                 // module path from go.mod
	pkgs    map[string]*checkedPkg // by import path
	loading map[string]bool        // import-cycle guard
}

// stdImporter is the process's one standard-library source importer.
// Type-checking the standard library from source is most of a vet
// run's cost, so every loader shares the packages it has already
// checked. It keeps its own FileSet: no finding points into the
// standard library. Like the source importer it wraps, it is not safe
// for concurrent use, and loaders run one at a time.
var stdImporter = sync.OnceValue(func() types.Importer {
	return importer.ForCompiler(token.NewFileSet(), "source", nil)
})

// checkedPkg is one parsed, type-checked package.
type checkedPkg struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modpath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    abs,
		modpath: modpath,
		pkgs:    make(map[string]*checkedPkg),
		loading: make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: cannot read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// loadAll discovers every package directory under the module root and
// type-checks each, returning them sorted by import path.
func (l *loader) loadAll() ([]*checkedPkg, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*checkedPkg
	for _, dir := range dirs {
		cp, err := l.checkDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", dir, err)
		}
		if cp != nil {
			out = append(out, cp)
		}
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if sourceFile(e) {
			return true
		}
	}
	return false
}

// sourceFile reports whether e is a non-test Go source file. Tests are
// excluded from vetting: they legitimately use real time, bare
// goroutines, and wall-clock deadlines to exercise the system from
// outside the clock.
func sourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modpath
	}
	return l.modpath + "/" + filepath.ToSlash(rel)
}

func (l *loader) dirFor(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

// checkDir parses and type-checks the package in dir. Type errors do
// not abort the load: the config collects and discards them, so the
// analyzers see as much type information as could be computed.
func (l *loader) checkDir(dir, path string) (*checkedPkg, error) {
	if cp, ok := l.pkgs[path]; ok {
		return cp, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // tolerate; analyzers degrade gracefully
	}
	pkg, _ := conf.Check(path, l.fset, files, info) // errors already collected
	if pkg == nil {
		pkg = types.NewPackage(path, "")
	}
	cp := &checkedPkg{path: path, dir: dir, files: files, pkg: pkg, info: info}
	l.pkgs[path] = cp
	return cp, nil
}

func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !sourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer. Module-internal paths are resolved
// by recursive type-checking; everything else is delegated to the
// source importer, falling back to an empty placeholder package so one
// unresolvable import never aborts the whole vet run.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		cp, err := l.checkDir(l.dirFor(path), path)
		if err != nil {
			return nil, err
		}
		if cp == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return cp.pkg, nil
	}
	if pkg := l.importStd(path); pkg != nil {
		return pkg, nil
	}
	return placeholder(path), nil
}

// importStd imports a non-module package via the source importer,
// absorbing any failure (including panics — srcimporter is not fully
// hardened) into a nil return.
func (l *loader) importStd(path string) (pkg *types.Package) {
	defer func() {
		if recover() != nil {
			pkg = nil
		}
	}()
	pkg, err := stdImporter().Import(path)
	if err != nil {
		return nil
	}
	return pkg
}

// placeholder builds an empty, complete package so that import
// declarations still bind a PkgName with the correct path. Analyzers
// keyed on package identity (walltime, globalrand) keep working;
// analyzers needing signatures (errdrop) skip what they cannot see.
func placeholder(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}
