package hcd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAssemblyLivesInKernel: every assembly file of the module, and the one
// CPUID probe, sit in internal/kernel, which owns what the SIMD bodies share —
// the probe, the operand check, the chunking and the test harness — so a new
// body is added there, not beside its caller with copies of all four.
func TestAssemblyLivesInKernel(t *testing.T) {
	kernelDir := filepath.Join("internal", "kernel")
	probe := "cpuHas" + "AVX2" // split, so this file does not name it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch ext := filepath.Ext(path); {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || filepath.Dir(path) == kernelDir || ext != ".s" && ext != ".go":
			return nil
		case ext == ".s":
			t.Errorf("%s: assembly outside %s", path, kernelDir)
		}
		src, err := os.ReadFile(path)
		if err == nil && (strings.Contains(string(src), "TEXT ·"+probe) || strings.Contains(string(src), "func "+probe+"(")) {
			t.Errorf("%s: a CPUID probe outside %s", path, kernelDir)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneEntryPerOperation: no package pairs a function or method X with a
// context-aware twin XCtx. Every operation that can run long has one entry,
// which takes a context; callers without one pass context.Background(). The
// three pairs left are called by the benchmark harness under both names.
func TestOneEntryPerOperation(t *testing.T) {
	kept := map[string]bool{
		"internal/decomp.Evaluate": true,
		"internal/hierarchy.New":   true,
		"internal/mst.Kruskal":     true,
	}
	funcs := map[string]bool{} // "dir.Recv.Name" of every non-test declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name + "."
				}
			}
			funcs[filepath.ToSlash(filepath.Dir(path))+"."+recv+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range funcs {
		twin, ok := strings.CutSuffix(name, "Ctx")
		if ok && funcs[twin] && !kept[twin] {
			t.Errorf("%s has a context-free twin %s", name, twin)
		}
	}
	for name := range kept {
		if !funcs[name] || !funcs[name+"Ctx"] {
			t.Errorf("%s is no longer a pair; drop it from the kept list", name)
		}
	}
}
