// Package load type-checks the packages of this module for cosmoslint
// without golang.org/x/tools/go/packages: `go list -export -deps -json`
// names every source file and produces gc export data for every
// dependency in the build cache, and the standard library's gc importer
// reads that export data through a lookup callback. The result is a fully
// type-checked package (AST + go/types info) per target, loaded from
// source, with no network access and no dependencies outside the standard
// library.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked target.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors holds soft type-checking errors. Loading fails hard only
	// when a package cannot be checked at all.
	TypeErrors []error
}

// Config controls a Load.
type Config struct {
	// Dir is the directory `go list` runs in (any directory inside the
	// module). Empty means the current directory.
	Dir string
	// IncludeTests loads the test variants of matched packages (their
	// GoFiles include the _test.go files) instead of just the base
	// packages.
	IncludeTests bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct{ Err string }
}

// Load lists patterns, parses every matched package from source and
// type-checks it against the export data of its dependencies.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,ImportMap,Module,Error"}
	if cfg.IncludeTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.DepOnly {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // the synthesized test-binary main package
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s uses cgo, which the loader does not support", p.ImportPath)
		}
		q := p
		targets = append(targets, &q)
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, t *listPkg, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}

	// The importer is built fresh per target: test variants resolve some
	// import paths to the variant's own export data via ImportMap, so a
	// shared importer cache would conflate `p` with `p [p.test]`.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := t.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}

	pkg := &Package{
		ImportPath: t.ImportPath,
		Fset:       fset,
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	if t.Module != nil && t.Module.GoVersion != "" {
		conf.GoVersion = "go" + t.Module.GoVersion
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, pkg.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
