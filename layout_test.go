package hcd_test

import (
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
