package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Pass       *Pass
}

// Loader parses and type-checks packages of one module without invoking the
// go tool: local import paths resolve against the module root, everything
// else (the standard library) goes through the stdlib source importer.
type Loader struct {
	Root         string // module root directory (contains go.mod)
	IncludeTests bool   // also parse in-package _test.go files

	fset    *token.FileSet
	modPath string
	std     types.Importer
	pkgs    map[string]*types.Package
	passes  map[string]*Pass
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		fset:    fset,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		passes:  map[string]*Pass{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves package patterns ("./...", "./internal/compress/...", a
// plain directory) to type-checked packages in deterministic order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Root, base)
		}
		if !recursive {
			dirSet[filepath.Clean(base)] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			// Like the go command's "./...", stop at nested modules.
			if path != base {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirSet[filepath.Clean(path)] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var out []*Package
	for _, dir := range dirs {
		ip, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pass, err := l.loadDir(ip, dir)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", ip, err)
		}
		if pass == nil {
			continue
		}
		out = append(out, &Package{ImportPath: ip, Dir: dir, Pass: pass})
	}
	return out, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: directory %s is outside module %s", dir, l.Root)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: local paths load from source within the
// module, everything else defers to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		if _, err := l.loadDir(path, filepath.Join(l.Root, filepath.FromSlash(rel))); err != nil {
			return nil, err
		}
		return l.pkgs[path], nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir, memoized by import
// path. It returns nil for directories with no buildable Go files only when
// the caller tolerates that (Load does; Import treats it as an error).
func (l *Loader) loadDir(importPath, dir string) (*Pass, error) {
	if pass, ok := l.passes[importPath]; ok {
		return pass, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, &build.NoGoError{Dir: dir}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	pass := NewPass(l.fset, files, info, pkg)
	l.passes[importPath] = pass
	return pass, nil
}

// CheckFile type-checks one standalone source file (stdlib imports only) —
// the loading mode the golden tests use for testdata fixtures.
func CheckFile(filename string) (*Pass, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	return NewPass(fset, []*ast.File{f}, info, pkg), nil
}
