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
//     other way round, README.md's "Command reference" section is checked
//     per command: each "**name** —" entry must name a directory under
//     cmd/, and each backticked `-name` in an entry must be a flag that
//     entry's command registers, so neither a removed command nor a flag
//     borrowed from another command can linger in the reference (a
//     backticked flag before the first entry must be registered by some
//     command);
//   - every Prometheus metric registered under internal/ or cmd/ (any
//     "dits_*" name passed to a registration call) must be documented in
//     docs/OPERATIONS.md;
//   - no non-test file under internal/ or cmd/ may import a banned
//     package (bannedImports): the unstructured standard "log" —
//     operational output goes through log/slog (internal/obs.OpenLogger),
//     so every record carries fields and can carry a trace ID —
//     "encoding/gob" outside its allow-list, so a second wire encoding or
//     snapshot format cannot grow back, and "compress/gzip" and
//     "compress/flate" anywhere, so compression cannot come back without a
//     measurement;
//   - every exported function or method declared in a non-test file under
//     internal/ must have its name appear in some non-test Go file of the
//     module, or in a test file of another package, so an export only its
//     own package's tests call cannot grow back (testOnlyExports). The
//     match is by name: a method sharing its name with a used identifier
//     can slip through, but a used function is never flagged. Methods the
//     standard library calls through an interface are allow-listed
//     (interfaceMethods).
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

	cmds, flags := cmdFlags(filepath.Join(*root, "cmd"))
	for _, f := range flags {
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
	missing = append(missing, referenceDrift(readme, cmds, flags)...)

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
	missing = append(missing, testOnlyExports(*root)...)

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
	{"encoding/gob", "wire payloads are dits-bin/1 (internal/federation/codec.go), index snapshots dsnap/2 (internal/index/ditsfile)",
		[]string{"internal/federation/memberlog.go"}},
	{"compress/gzip", "payloads ship raw; only cluster.forward's request codes its bodies, as copies of earlier ones (internal/federation/codec.go)", nil},
	{"compress/flate", "payloads ship raw; only cluster.forward's request codes its bodies, as copies of earlier ones (internal/federation/codec.go)", nil},
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

// interfaceMethods are method names the standard library calls through an
// interface (sort.Interface, heap.Interface, error, fmt.Stringer,
// http.ResponseWriter, and encoding.BinaryMarshaler and
// BinaryUnmarshaler, which gob calls), so no file of the module need name
// them.
var interfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "String": true, "WriteHeader": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// testOnlyExports reports every exported function or method declared in a
// non-test file under internal/ whose name appears, other than as a
// function's own declared name, in no non-test Go file under root and in
// no test file outside the declaring package's directory.
func testOnlyExports(root string) []string {
	type decl struct{ name, at, dir string }
	var decls []decl
	usedOutsideTests := map[string]bool{}
	testDirs := map[string]map[string]bool{} // name -> directories of test files naming it
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, isTest := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		for _, dcl := range file.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if isTest || !fn.Name.IsExported() || !strings.HasPrefix(path, internal) {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				if interfaceMethods[name] {
					continue
				}
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			rel, _ := filepath.Rel(root, path)
			at := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fn.Pos()).Line)
			decls = append(decls, decl{name: name, at: at, dir: dir})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			if !isTest {
				usedOutsideTests[id.Name] = true
			} else {
				if testDirs[id.Name] == nil {
					testDirs[id.Name] = map[string]bool{}
				}
				testDirs[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if len(decls) == 0 {
		return []string{"found no exported functions under internal/ (checker broken?)"}
	}
	var out []string
	for _, d := range decls {
		name := d.name[strings.LastIndex(d.name, ".")+1:]
		if usedOutsideTests[name] {
			continue
		}
		elsewhere := false
		for dir := range testDirs[name] {
			elsewhere = elsewhere || dir != d.dir
		}
		if !elsewhere {
			out = append(out, fmt.Sprintf("%s: exported %s is named only in its own package's tests, if at all; delete it or move it into a _test.go file", d.at, d.name))
		}
	}
	sort.Strings(out)
	return out
}

// recvName returns the type name of a method receiver: T for T and *T.
func recvName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
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

// referenceEntry matches the line that opens one command's entry in the
// command reference: "**name** —".
var referenceEntry = regexp.MustCompile(`^\*\*([^*]+)\*\* —`)

// referenceDrift checks README's "Command reference" section (up to the
// next second-level heading) against the commands under cmd/ and the flags
// each registers: every entry must name a command, and every flag an entry
// quotes must be one its command registers. A flag quoted before the first
// entry must be registered by some command.
func referenceDrift(readme string, cmds []string, flags []cmdFlag) []string {
	_, section, ok := strings.Cut(readme, "\n## Command reference\n")
	if !ok {
		return []string{`README.md has no "Command reference" section`}
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	registers := map[string]map[string]bool{"": {}} // command -> its flags; "" -> every flag
	for _, c := range cmds {
		registers[c] = map[string]bool{}
	}
	for _, f := range flags {
		registers[f.cmd][f.name] = true
		registers[""][f.name] = true
	}
	var out []string
	quoted := 0
	cmd := "" // the entry being read; "" before the first
	for _, line := range strings.Split(section, "\n") {
		if m := referenceEntry.FindStringSubmatch(line); m != nil {
			if cmd = m[1]; registers[cmd] == nil {
				out = append(out, fmt.Sprintf("README.md's command reference has an entry for %s, which is no command under cmd/", cmd))
			}
		}
		for _, m := range backtickedFlag.FindAllStringSubmatch(line, -1) {
			quoted++
			switch {
			case registers[cmd] == nil || registers[cmd][m[1]]: // reported above, or fine
			case cmd == "":
				out = append(out, fmt.Sprintf("README.md's command reference documents -%s, which no command under cmd/ registers", m[1]))
			default:
				out = append(out, fmt.Sprintf("README.md's command reference documents -%s under %s, which does not register it", m[1], cmd))
			}
		}
	}
	if quoted == 0 {
		out = append(out, `found no flags in README.md's "Command reference" section (checker broken?)`)
	}
	return out
}

type cmdFlag struct{ cmd, name string }

// cmdFlags returns the commands under cmdDir (its directories) and every
// flag name they register via the flag package (flag.String, flag.IntVar,
// ... — the name is the first string-literal argument).
func cmdFlags(cmdDir string) (cmds []string, flags []cmdFlag) {
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
		cmds = append(cmds, e.Name())
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
	return cmds, out
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
