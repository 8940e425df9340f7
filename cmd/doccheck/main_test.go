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

// TestReferenceDrift feeds the command-reference check READMEs that each
// drift one way and expects it to name exactly that drift.
func TestReferenceDrift(t *testing.T) {
	cmds := []string{"gate", "query"}
	flags := []cmdFlag{{"gate", "addr"}, {"gate", "seed"}, {"query", "k"}}
	const head = "# tool\n\n## Command reference\n\nThe `-addr` intro.\n\n**gate** — serve. `-addr` listen, `-seed` seed.\n\n"
	for _, tc := range []struct {
		name, entries string
		want          []string
	}{
		{"clean", "**query** — ask. `-k` results.\n", nil},
		{"entry for a missing command", "**query** — ask. `-k` results.\n\n**load** — removed. `-k`, `-seed`.\n",
			[]string{"README.md's command reference has an entry for load, which is no command under cmd/"}},
		{"flag borrowed from another command", "**query** — ask. `-k` results, `-seed` seed.\n",
			[]string{"README.md's command reference documents -seed under query, which does not register it"}},
		{"flag no command registers", "**query** — ask. `-k` results, `-json` output.\n",
			[]string{"README.md's command reference documents -json under query, which does not register it"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			readme := head + tc.entries + "\n## Development\n\n**load** — `-x` after the section.\n"
			if got := referenceDrift(readme, cmds, flags); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("referenceDrift = %q, want %q", got, tc.want)
			}
		})
	}
}
