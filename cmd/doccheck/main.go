// Command doccheck is the docs-consistency gate run in CI: it fails when
// the code's public surface drifts out of the documentation.
//
//	go run ./cmd/doccheck            # check, exit 1 on drift
//	go run ./cmd/doccheck -v         # also list everything checked
//
// These surfaces are checked:
//
//   - every exported Method* constant in internal/federation (the
//     federation RPC methods) must have its wire name documented in
//     docs/PROTOCOL.md — and, the other way round, every backticked name
//     in the first column of a PROTOCOL.md method table must be the value
//     of such a constant, so a removed method cannot linger in the tables;
//   - every flag registered by a command under cmd/ must appear, as
//     "-name", in README.md or one of the docs/*.md files — and, the
//     other way round, every backticked `-name` in README.md's "Command
//     reference" section must be a flag some command under cmd/ still
//     registers, so a removed flag cannot linger in the reference;
//   - every Prometheus metric registered under internal/ or cmd/ (any
//     "dits_*" name passed to a registration call) must be documented in
//     docs/OPERATIONS.md;
//   - no non-test file under internal/ or cmd/ may import a banned
//     package (bannedImports): the unstructured standard "log" —
//     operational output goes through log/slog (internal/obs.OpenLogger),
//     so every record carries fields and can carry a trace ID —
//     "encoding/gob" outside its allow-list, so a second wire encoding or
//     snapshot format cannot grow back, and "compress/gzip" anywhere and
//     "compress/flate" outside the relay envelope's codec, so compression
//     per connection cannot come back without a measurement.
//
// The checker parses the Go source (go/ast), so new methods, flags, and
// metrics are picked up without maintaining a list here.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	verbose := flag.Bool("v", false, "list every checked method and flag")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	protocol := readFile(filepath.Join(*root, "docs", "PROTOCOL.md"))
	readme := readFile(filepath.Join(*root, "README.md"))
	docs := protocol + readme
	for _, extra := range globMust(filepath.Join(*root, "docs", "*.md")) {
		docs += readFile(extra)
	}

	var missing []string

	methods := methodConstants(filepath.Join(*root, "internal", "federation"))
	isMethod := map[string]bool{}
	for _, m := range methods {
		isMethod[m.value] = true
		if *verbose {
			fmt.Printf("method %-18s = %q\n", m.name, m.value)
		}
		if !strings.Contains(protocol, m.value) {
			missing = append(missing,
				fmt.Sprintf("federation method %s (%q) is not documented in docs/PROTOCOL.md", m.name, m.value))
		}
	}
	if len(methods) == 0 {
		missing = append(missing, "found no Method* constants in internal/federation (checker broken?)")
	}
	tabled := tableMethods(protocol)
	for _, name := range tabled {
		if !isMethod[name] {
			missing = append(missing,
				fmt.Sprintf("docs/PROTOCOL.md's method tables list %q, which is no Method* constant in internal/federation", name))
		}
	}
	if len(tabled) == 0 {
		missing = append(missing, "found no method tables in docs/PROTOCOL.md (checker broken?)")
	}

	flags := cmdFlags(filepath.Join(*root, "cmd"))
	registered := map[string]bool{}
	for _, f := range flags {
		registered[f.name] = true
		if *verbose {
			fmt.Printf("flag   %-10s -%s\n", f.cmd, f.name)
		}
		if !strings.Contains(docs, "-"+f.name) {
			missing = append(missing,
				fmt.Sprintf("flag -%s of cmd/%s is not documented in README.md or docs/", f.name, f.cmd))
		}
	}
	if len(flags) == 0 {
		missing = append(missing, "found no flags under cmd/ (checker broken?)")
	}
	referenced := referenceFlags(readme)
	for _, name := range referenced {
		if !registered[name] {
			missing = append(missing,
				fmt.Sprintf("README.md's command reference documents -%s, which no command under cmd/ registers", name))
		}
	}
	if len(referenced) == 0 {
		missing = append(missing, `found no flags in README.md's "Command reference" section (checker broken?)`)
	}

	operations := readFile(filepath.Join(*root, "docs", "OPERATIONS.md"))
	names := metricNames([]string{filepath.Join(*root, "internal"), filepath.Join(*root, "cmd")})
	for _, m := range names {
		if *verbose {
			fmt.Printf("metric %s (%s)\n", m.name, m.at)
		}
		if !strings.Contains(operations, m.name) {
			missing = append(missing,
				fmt.Sprintf("metric %s (registered at %s) is not documented in docs/OPERATIONS.md", m.name, m.at))
		}
	}
	if len(names) == 0 {
		missing = append(missing, "found no dits_* metric registrations (checker broken?)")
	}

	missing = append(missing, bannedImportUses(*root)...)

	if len(missing) > 0 {
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "doccheck:", m)
		}
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d federation methods, %d command flags, and %d metrics documented\n",
		len(methods), len(flags), len(names))
}

type metric struct{ name, at string }

// metricNames returns every Prometheus metric name registered under the
// given directories: any "dits_*" string literal passed as the first
// argument of a call in a non-test Go file. Matching the literal instead of
// the callee keeps wrapper helpers around Register* in scope.
func metricNames(dirs []string) []metric {
	seen := map[string]string{}
	walkGoFiles(dirs, func(path string, file *ast.File, fset *token.FileSet) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(name, "dits_") {
				return true
			}
			if _, dup := seen[name]; !dup {
				pos := fset.Position(lit.Pos())
				seen[name] = fmt.Sprintf("%s:%d", path, pos.Line)
			}
			return true
		})
	})
	out := make([]metric, 0, len(seen))
	for name, at := range seen {
		out = append(out, metric{name: name, at: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// bannedImports are the packages non-test code under internal/ and cmd/
// must not import, each with the files or directories (slash paths from
// the repository root) still allowed to, and what to use instead.
var bannedImports = []struct {
	path, instead string
	allow         []string
}{
	{"log", "use log/slog via internal/obs.OpenLogger", nil},
	{"encoding/gob", "wire payloads are dits-bin/1 (internal/federation/codec.go), index snapshots dsnap/1 (internal/index/ditsfile)",
		[]string{"internal/federation/memberlog.go"}},
	{"compress/gzip", "payloads ship raw; only cluster.forward's request deflates its bodies (internal/federation/codec.go)", nil},
	{"compress/flate", "payloads ship raw; only cluster.forward's request deflates its bodies (internal/federation/codec.go)",
		[]string{"internal/federation/codec.go"}},
}

// bannedImportUses reports every non-test file under internal/ and cmd/
// importing a banned package outside its allow-list.
func bannedImportUses(root string) []string {
	var out []string
	walkGoFiles([]string{filepath.Join(root, "internal"), filepath.Join(root, "cmd")}, func(path string, file *ast.File, _ *token.FileSet) {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		for _, imp := range file.Imports {
			for _, b := range bannedImports {
				if imp.Path.Value != strconv.Quote(b.path) || allowed(rel, b.allow) {
					continue
				}
				out = append(out, fmt.Sprintf("%s imports %q; %s", path, b.path, b.instead))
			}
		}
	})
	sort.Strings(out)
	return out
}

// allowed reports whether rel is one of the allow-list's files or lies
// under one of its directories.
func allowed(rel string, allow []string) bool {
	for _, a := range allow {
		if rel == a || strings.HasPrefix(rel, a+"/") {
			return true
		}
	}
	return false
}

// walkGoFiles parses every non-test .go file under the given directories
// and hands each to fn.
func walkGoFiles(dirs []string, fn func(path string, file *ast.File, fset *token.FileSet)) {
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			fn(path, file, fset)
			return nil
		})
		if err != nil {
			fatal(err)
		}
	}
}

type method struct{ name, value string }

// methodConstants returns every exported Method* string constant declared
// in the package directory.
func methodConstants(dir string) []method {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		fatal(err)
	}
	var out []method
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Method") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err == nil {
							out = append(out, method{name: id.Name, value: v})
						}
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// backticked matches one backticked name.
var backticked = regexp.MustCompile("`([^`]+)`")

// tableMethods returns the backticked names in the first column of every
// method table of the protocol document: a Markdown table whose header's
// first cell is "method".
func tableMethods(doc string) []string {
	var out []string
	inTable := false
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			inTable = false
			continue
		}
		first := strings.TrimSpace(cells[1])
		if first == "method" {
			inTable = true
			continue
		}
		if inTable {
			for _, m := range backticked.FindAllStringSubmatch(first, -1) {
				out = append(out, m[1])
			}
		}
	}
	return out
}

// backtickedFlag matches a flag exactly as the command reference quotes
// it: a backticked "-name" and nothing else between the backticks.
var backtickedFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// referenceFlags returns the distinct flag names quoted in the README's
// "Command reference" section (up to the next second-level heading).
func referenceFlags(readme string) []string {
	_, section, ok := strings.Cut(readme, "\n## Command reference\n")
	if !ok {
		return nil
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	seen := map[string]bool{}
	var out []string
	for _, m := range backtickedFlag.FindAllStringSubmatch(section, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	sort.Strings(out)
	return out
}

type cmdFlag struct{ cmd, name string }

// cmdFlags returns every flag name registered via the flag package by the
// commands under cmdDir (flag.String, flag.IntVar, ... — the name is the
// first string-literal argument).
func cmdFlags(cmdDir string) []cmdFlag {
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		fatal(err)
	}
	var out []cmdFlag
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(cmdDir, e.Name()), nil, 0)
		if err != nil {
			fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
						return true
					}
					if !flagRegisterFuncs[sel.Sel.Name] {
						return true
					}
					// Registration funcs take the name as the first string
					// literal argument (Xxx: arg 0, XxxVar: arg 1).
					for _, arg := range call.Args {
						lit, ok := arg.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						name, err := strconv.Unquote(lit.Value)
						if err == nil && name != "" {
							key := e.Name() + "|" + name
							if !seen[key] {
								seen[key] = true
								out = append(out, cmdFlag{cmd: e.Name(), name: name})
							}
						}
						break
					}
					return true
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cmd != out[j].cmd {
			return out[i].cmd < out[j].cmd
		}
		return out[i].name < out[j].name
	})
	return out
}

// flagRegisterFuncs are the flag-package functions that register a flag.
var flagRegisterFuncs = map[string]bool{
	"Bool": true, "BoolVar": true,
	"Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true,
	"Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true,
	"String": true, "StringVar": true,
	"Duration": true, "DurationVar": true,
}

func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func globMust(pattern string) []string {
	out, err := filepath.Glob(pattern)
	if err != nil {
		fatal(err)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doccheck:", err)
	os.Exit(1)
}
