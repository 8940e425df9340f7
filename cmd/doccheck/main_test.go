package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestTestOnlyExports plants a module with one export of each kind and
// expects the check to name exactly the ones only their own package's
// tests call.
func TestTestOnlyExports(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/pkg/pkg.go": `package pkg

type T struct{}

func Used() {}

func OwnTestOnly() {}

func OtherTestUses() {}

func Dead() {}

func (T) String() string { return "" }

func (*T) OwnTestMethod() {}
`,
		"internal/pkg/pkg_test.go": `package pkg

import "testing"

func TestPkg(t *testing.T) {
	OwnTestOnly()
	var v T
	v.OwnTestMethod()
}
`,
		"internal/other/other_test.go": `package other

import (
	"testing"

	"m/internal/pkg"
)

func TestOther(t *testing.T) { pkg.OtherTestUses() }
`,
		"cmd/tool/main.go": `package main

import "m/internal/pkg"

func main() { pkg.Used() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var named []string
	for _, m := range testOnlyExports(root) {
		at, rest, _ := strings.Cut(m, ": exported ")
		name, _, _ := strings.Cut(rest, " ")
		if !strings.HasPrefix(at, "internal/pkg/pkg.go:") {
			t.Errorf("finding %q does not point into internal/pkg/pkg.go", m)
		}
		named = append(named, name)
	}
	slices.Sort(named)
	if want := []string{"Dead", "OwnTestOnly", "T.OwnTestMethod"}; !reflect.DeepEqual(named, want) {
		t.Fatalf("testOnlyExports named %v, want %v", named, want)
	}
}
