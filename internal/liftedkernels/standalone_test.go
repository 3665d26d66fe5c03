// Standalone gate: the package is meant to be vendored into a host
// application as the drop-in replacement for the legacy filter, so its
// sources (hand-written runtime.go and generated kernels.go alike) may
// import only the standard library — never the lifting pipeline.
package liftedkernels_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestPackageImportsNothingFromHelium(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(p, "helium/") {
				t.Errorf("%s imports %q: the package must stay standalone", fset.Position(imp.Pos()), p)
			}
		}
	}
	if parsed < 2 {
		t.Fatalf("parsed %d non-test source files, want runtime.go and kernels.go at least", parsed)
	}
}
