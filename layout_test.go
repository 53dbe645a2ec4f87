package hcd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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
	funcs := map[string]bool{} // "dir.Recv.Name" of every non-test function
	walkSources(t, func(path string, f *ast.File) {
		for _, d := range exportedDecls(f) {
			if d.fn {
				funcs[filepath.Dir(path)+"."+d.name] = true
			}
		}
	})
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

// TestExportsHaveProductionCaller: every exported top-level declaration of
// the facade (keyed "hcd.Name") or of an internal package is named — as
// pkg.Name, as .Name for a method or an interface call, or bare from another
// file of its package — from a non-test file other than its own: a command,
// an example, the benchmark (which is how the context-free twins
// TestOneEntryPerOperation keeps, and the facade's SolvePCGCtx, stay
// reachable), the facade or another package. A type, variable or constant may also be
// named in its own file, where the signatures that use it live. Code that
// only its own tests call is deleted, not kept. Matching is by name alone, so
// a method counts as used when any selector anywhere has its name. The
// allowlist holds what is kept on purpose, grouped by reason.
func TestExportsHaveProductionCaller(t *testing.T) {
	allowed := map[string]bool{
		// Oracles and fixtures: the reference a test compares against, named
		// with that test.
		"internal/dense.NewPinnedLaplacian":               true, // support: TestProbeMatchesDense; subgraph: TestApplyMatchesDensePseudoInverse
		"internal/dense.Matrix.MulVec":                    true, // steiner: TestApplyMatchesSchurComplement
		"internal/graph.Graph.ExactConductanceBruteForce": true, // graph: TestExactConductanceMatchesBruteForceFloatWeights, FuzzExactConductance
		"internal/steiner.SchurDense":                     true, // steiner: TestApplyMatchesSchurComplement; spectral: TestTheorem41OnTrees
		"internal/steiner.SteinerGraph":                   true, // steiner: TestApplyMatchesFullSteinerSystemSolve
		"internal/support.GeneralizedExtremes":            true, // support: TestProbeMatchesDense
		"internal/support.Sigma":                          true, // steiner: TestTheorem35BoundOnGrids; sparsify: TestSparsifySpectralQualityImprovesWithBudget
		"internal/support.ConditionNumber":                true, // steiner: TestConditionNumberConstantAcrossSizes
		"internal/support.EmbeddingBound":                 true, // steiner: TestTheorem35RoutingStep (§3's support argument against the dense σ)
		"internal/support.FractionalEmbeddingBound":       true, // steiner: TestTheorem35RoutingStep
		"internal/treealg.RootAt":                         true, // treealg: TestCritical3CountBound
		"internal/treealg.Rooted.ChildLists":              true, // decomp: TestFixedDegreeMatchesForestReference, FuzzSplitPointers
		"internal/treealg.PruferEncode":                   true, // treealg: TestPruferRoundTrip
		"internal/workload.Caterpillar":                   true, // decomp: TestTreeDecompositionStarsAndCaterpillars
		"internal/workload.BinaryTree":                    true, // graph: TestContractAcrossFamilies
		"internal/decomp.MaxGammaViolations":              true, // decomp: TestAtMostOneGammaViolationPerCluster; root: FuzzTheorems (Section 2's γ lemma)
		// Test hooks of internal/kernel, which its callers' tests use to run
		// the Go form, pin the chunking and name each special operand.
		"internal/kernel.ObserveChunks": true,
		"internal/kernel.SameWord":      true,
		"internal/kernel.WithGo":        true,
		"internal/kernel.Specials":      true,
		// Test hooks of internal/faultinject: production code only fires
		// fault points; tests arm a plan and check that a point fired.
		"internal/faultinject.Activate": true,
		"internal/faultinject.Hits":     true,
		// The facade's file formats, for programs that import the library;
		// the commands reach the same readers and writers through gio.
		"hcd.ReadMatrixMarket":   true, // root: TestIORoundTripFacade
		"hcd.WriteMatrixMarket":  true, // root: TestIORoundTripFacade
		"hcd.ReadGraphSnapshot":  true, // root: TestIORoundTripFacade
		"hcd.WriteGraphSnapshot": true, // root: TestIORoundTripFacade
	}
	type decl struct {
		file, dir, name string
		fn              bool
	}
	var decls []decl
	// named["dir.Name"] lists the files naming Name bare in package dir,
	// named[".Name"] those naming it after a dot.
	named := map[string]map[string]bool{}
	note := func(key, file string) {
		if named[key] == nil {
			named[key] = map[string]bool{}
		}
		named[key][file] = true
	}
	walkSources(t, func(path string, f *ast.File) {
		dir := filepath.Dir(path)
		if dir == "." {
			dir = "hcd"
		}
		declared := map[*ast.Ident]bool{} // a declaration does not name itself
		for _, d := range exportedDecls(f) {
			declared[d.id] = true
			if dir == "hcd" || strings.HasPrefix(dir, "internal/") {
				decls = append(decls, decl{path, dir, d.name, d.fn})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && declared[id] {
				return true
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				note("."+n.Sel.Name, path)
			case *ast.Ident:
				note(dir+"."+n.Name, path)
			}
			return true
		})
	})
	seen := map[string]bool{}
	for _, d := range decls {
		key := d.dir + "." + d.name
		seen[key] = true
		name := d.name[strings.LastIndex(d.name, ".")+1:]
		called := stdlibCalls[name] && name != d.name
		for file := range named["."+name] {
			called = called || file != d.file || !d.fn
		}
		for file := range named[d.dir+"."+name] {
			called = called || file != d.file || !d.fn
		}
		if !called && !allowed[key] {
			t.Errorf("%s (%s) is named from no non-test file but its own: delete it, or list it with its reason", key, d.file)
		}
		if called && allowed[key] {
			t.Errorf("%s now has a production caller; drop it from the allowlist", key)
		}
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("%s is no longer declared; drop it from the allowlist", key)
		}
	}
}

// stdlibCalls are the methods the standard library calls through an
// interface (sort.Interface, error, errors.Unwrap, fmt.Stringer): a method of
// that name has its caller outside the module.
var stdlibCalls = map[string]bool{"Len": true, "Less": true, "Swap": true, "Error": true, "Unwrap": true, "String": true}

// walkSources parses every non-test Go file of the module, skipping hidden
// directories, and hands each to visit with its slash-separated path.
func walkSources(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
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
		if err == nil {
			visit(filepath.ToSlash(path), f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exported is one exported top-level declaration: a type, variable or
// constant by its name, a function as "Name", a method as "Recv.Name".
type exported struct {
	name string
	fn   bool
	id   *ast.Ident // the declaring identifier
}

// exportedDecls lists the exported top-level declarations of f.
func exportedDecls(f *ast.File) []exported {
	var out []exported
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			recv := ""
			if decl.Recv != nil {
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name + "."
				}
			}
			out = append(out, exported{recv + decl.Name.Name, true, decl.Name})
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						out = append(out, exported{spec.Name.Name, false, spec.Name})
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							out = append(out, exported{id.Name, false, id})
						}
					}
				}
			}
		}
	}
	return out
}

// TestOptionFieldsHaveProductionSetter: every field of the option structs on
// the solve path is set — as a composite-literal key or an assignment target —
// by a non-test file outside the struct's own package: a command, an example,
// the benchmark, the server or the facade. A field only tests set is a
// configuration no caller needs; it is replaced by a constant, not kept.
// Matching is by field name alone, as in TestExportsHaveProductionCaller. The
// allowlist holds what is kept on purpose, with its reason.
func TestOptionFieldsHaveProductionSetter(t *testing.T) {
	structs := map[string]bool{ // dir/Struct, the facade's bare
		"internal/solver/Options":        true,
		"SolveRequest":                   true,
		"PrecondSpec":                    true,
		"DecomposeOptions":               true,
		"internal/hierarchy/Options":     true,
		"internal/serve/Config":          true,
		"internal/serve/AdmissionConfig": true,
	}
	allowed := map[string]bool{
		"internal/serve/Config.MaxBodyBytes": true, // a limit on input from outside the program
	}
	type field struct{ owner, name string }
	var fields []field
	set := map[string][]string{} // field name -> dirs of the files setting it
	walkSources(t, func(file string, f *ast.File) {
		dir := filepath.Dir(file)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if owner := path.Join(dir, n.Name.Name); ok && structs[owner] {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							fields = append(fields, field{owner, id.Name})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = append(set[id.Name], dir)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = append(set[sel.Sel.Name], dir)
					}
				}
			}
			return true
		})
	})
	declared := map[string]bool{}
	for _, fl := range fields {
		declared[fl.owner] = true
		key, dir := fl.owner+"."+fl.name, path.Dir(fl.owner)
		setter := false
		for _, d := range set[fl.name] {
			setter = setter || d != dir
		}
		if !setter && !allowed[key] {
			t.Errorf("%s is set by no non-test file outside %s: make it a constant, or list it with its reason", key, dir)
		}
		if setter && allowed[key] {
			t.Errorf("%s now has a production setter; drop it from the allowlist", key)
		}
	}
	for owner := range structs {
		if !declared[owner] {
			t.Errorf("%s is no longer declared; drop it from the list", owner)
		}
	}
}
