package streamline_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite api.txt from the package's exported declarations")

// TestAPI holds the package's public surface to api.txt: one line per
// exported constant, variable, function, type and method, sorted. A change
// to the surface is a change to that file, so it shows in review.
//
//	go test ./streamline -run TestAPI -update
//
// rewrites the file after an intended change.
func TestAPI(t *testing.T) {
	got := strings.Join(apiLines(t, "."), "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v (go test ./streamline -run TestAPI -update writes it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	var diff []string
	for _, l := range missing(wantLines, gotLines) {
		diff = append(diff, "- "+l)
	}
	for _, l := range missing(gotLines, wantLines) {
		diff = append(diff, "+ "+l)
	}
	t.Fatalf("the exported surface differs from api.txt:\n%s\nif the change is intended, run: go test ./streamline -run TestAPI -update",
		strings.Join(diff, "\n"))
}

// missing returns the lines of a that b lacks.
func missing(a, b []string) []string {
	in := map[string]bool{}
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}

// apiLines lists the exported declarations of the package in dir, one per
// line, sorted. go/doc drops everything unexported, unexported struct
// fields and interface methods included, and files each method under its
// type.
func apiLines(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro/streamline")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	values := func(kw string, vs []*doc.Value) {
		for _, v := range vs {
			lines = append(lines, valueLines(kw, v.Decl)...)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Doc, f.Decl.Body = nil, nil
			lines = append(lines, oneLine(f.Decl))
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			ts.Doc, ts.Comment = nil, nil
			lines = append(lines, "type "+oneLine(ts))
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return lines
}

// valueLines renders a const or var declaration one name per line, with its
// type (a const spec without type or value repeats the previous one's type)
// and its value expression.
func valueLines(kw string, decl *ast.GenDecl) []string {
	var lines []string
	var typ ast.Expr
	for _, spec := range decl.Specs {
		vs := spec.(*ast.ValueSpec)
		if vs.Type != nil || len(vs.Values) > 0 {
			typ = vs.Type
		}
		for i, name := range vs.Names {
			if !name.IsExported() {
				continue
			}
			l := kw + " " + name.Name
			if typ != nil {
				l += " " + oneLine(typ)
			}
			if i < len(vs.Values) {
				l += " = " + oneLine(vs.Values[i])
			}
			lines = append(lines, l)
		}
	}
	return lines
}

var (
	filtered = regexp.MustCompile(`\n*\}// contains filtered or unexported (fields|methods)\n?`)
	oneLiner = regexp.MustCompile(`\b(struct|interface)\{ `)
	open     = regexp.MustCompile(`\{\s*\n\s*`)
	closing  = regexp.MustCompile(`\s*\n\s*\}`)
	newline  = regexp.MustCompile(`\s*\n\s*`)
	blanks   = regexp.MustCompile(`[ \t]+`)
)

// oneLine prints node with go/printer and folds it onto one line: the
// fields and methods of a struct or interface are joined with "; ", and
// "..." stands for those go/doc filtered out as unexported.
func oneLine(node any) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, token.NewFileSet(), node); err != nil {
		panic(err)
	}
	s := filtered.ReplaceAllString(b.String(), "\n...\n}")
	s = oneLiner.ReplaceAllString(s, "$1 { ")
	s = open.ReplaceAllString(s, "{ ")
	s = closing.ReplaceAllString(s, " }")
	s = newline.ReplaceAllString(s, "; ")
	return blanks.ReplaceAllString(s, " ")
}
