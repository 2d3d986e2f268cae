package main

// smoke guard: where the product code may take, return and copy a run's
// memory (DESIGN.md §8), checked on the type-checked source rather than
// its text, so an import renamed or a method value taken does not slip
// past:
//
//   - arena.Take and arena.Put are used only in experiments.runPoint, the
//     one place a machine's arena is taken and given back;
//   - a sim.Stats's BackingSeries is cloned (slices.Clone) only in
//     experiments.(*Run).Detach, the one copy of a result to the heap.
//
// The product code is every non-test package under cmd and internal, and
// the root package; it is checked from the repository root.

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

const (
	arenaPkg = "repro/internal/arena"
	simPkg   = "repro/internal/sim"
	expPkg   = "repro/internal/experiments"
)

// guardSite is where a guarded use was found: the package and the function
// declaration around it ("(*Run).Detach" for a method).
type guardSite struct{ pkg, fn string }

func checkGuards() {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	arenaUses := map[guardSite]int{}
	clones := map[guardSite]int{}
	for _, dir := range productDirs() {
		bp, err := build.ImportDir(dir, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			continue
		}
		if err != nil {
			fail("%s: %v", dir, err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				fail("%v", err)
			}
			files = append(files, f)
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			fail("type-checking %s: %v", path, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				site := guardSite{path, funcName(fd)}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok && fn.Pkg() != nil &&
							fn.Pkg().Path() == arenaPkg && (fn.Name() == "Take" || fn.Name() == "Put") {
							arenaUses[site]++
						}
					case *ast.CallExpr:
						if isSlicesClone(info, n.Fun) && len(n.Args) == 1 && isBackingSeries(info, n.Args[0]) {
							clones[site]++
						}
					}
					return true
				})
			}
		}
	}
	onlyAt(arenaUses, guardSite{expPkg, "runPoint"}, 2, "arena.Take/arena.Put")
	onlyAt(clones, guardSite{expPkg, "(*Run).Detach"}, 1, "a clone of sim.Stats.BackingSeries")
}

// onlyAt fails unless uses were found at site alone, at least min of them
// (so that a rename cannot leave the guard checking nothing).
func onlyAt(uses map[guardSite]int, site guardSite, min int, what string) {
	for at, n := range uses {
		if at != site {
			fail("%s in %s.%s (%d), allowed only in %s.%s", what, at.pkg, at.fn, n, site.pkg, site.fn)
		}
	}
	if uses[site] < min {
		fail("%s: %d uses in %s.%s, want at least %d — moved or renamed?", what, uses[site], site.pkg, site.fn, min)
	}
}

// productDirs lists the directories of the product packages, relative to
// the repository root: the root itself and every directory under cmd and
// internal except testdata.
func productDirs() []string {
	dirs := []string{"."}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				dirs = append(dirs, p)
			}
			return nil
		})
		if err != nil {
			fail("%v (run from the repository root)", err)
		}
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fail("no go.mod here: run from the repository root")
	}
	slices.Sort(dirs)
	return dirs
}

// funcName spells a declaration as the guard names it: "f", or "(*T).m"
// and "T.m" for methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t, star := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// isSlicesClone reports whether fun is the standard library's slices.Clone.
func isSlicesClone(info *types.Info, fun ast.Expr) bool {
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr: // slices.Clone[[]uint64]
		if sel, ok := f.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "slices" && fn.Name() == "Clone"
}

// isBackingSeries reports whether e selects the BackingSeries field of a
// sim.Stats (through a pointer or not).
func isBackingSeries(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || s.Obj().Name() != "BackingSeries" {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	return ok && named.Obj().Name() == "Stats" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == simPkg
}
