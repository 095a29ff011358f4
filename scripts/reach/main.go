// Command reach is the reachability gate of DESIGN §11. It builds every
// main package of the module, and perfbench from its own module, with
// inlining off (-gcflags=all=-l), so that every function a binary calls is
// a symbol of that binary; lists the text symbols of each binary with
// `go tool nm`; and lists with go/ast every function declared in a
// non-test file of a library package of the module. A declared function
// that no binary links must be on the keep-list, scripts/reach/keep.txt,
// which gives one reason per name, and every name on the keep-list must
// be declared and unlinked. Anything else fails the gate:
//
//	go run ./scripts/reach    # from the module root; make reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// keepFile is the keep-list, relative to the module root.
const keepFile = "scripts/reach/keep.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	bin, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	linked := map[string]bool{}
	for _, module := range []string{".", "perfbench"} {
		out := filepath.Join(bin, filepath.Base(module)) + string(filepath.Separator)
		if err := gocmd(module, nil, "build", "-gcflags=all=-l", "-o", out, "./..."); err != nil {
			return err
		}
		if err := symbols(out, linked); err != nil {
			return err
		}
	}
	declared, err := declarations()
	if err != nil {
		return err
	}
	keep, err := keepList()
	if err != nil {
		return err
	}
	var unkept, linkedKept, undeclared []string
	for name, pos := range declared {
		if !linked[name] && keep[name] == "" {
			unkept = append(unkept, name+"\t"+pos)
		}
	}
	for name := range keep {
		switch {
		case declared[name] == "":
			undeclared = append(undeclared, name)
		case linked[name]:
			linkedKept = append(linkedKept, name)
		}
	}
	failed := report("declared, linked by no binary and not on the keep-list", unkept)
	failed = report("on the keep-list but linked by a binary", linkedKept) || failed
	failed = report("on the keep-list but not declared", undeclared) || failed
	if failed {
		return fmt.Errorf("the gate failed; delete what no binary links, or name it in %s with its reason", keepFile)
	}
	fmt.Printf("reach: %d functions declared, %d linked by no binary, all on the keep-list\n", len(declared), len(keep))
	return nil
}

// report prints the names under a heading and reports whether there were
// any.
func report(heading string, names []string) bool {
	if len(names) == 0 {
		return false
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", heading)
	for _, n := range names {
		fmt.Printf("  %s\n", n)
	}
	return true
}

// gocmd runs the go command in dir, writing its output to stdout, or to
// out when it is non-nil.
func gocmd(dir string, out *bytes.Buffer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stdout
	if out != nil {
		cmd.Stdout = out
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

// symbols adds the text symbols of every binary in dir to linked, with
// generic brackets stripped.
func symbols(dir string, linked map[string]bool) error {
	bins, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, b := range bins {
		var out bytes.Buffer
		if err := gocmd(".", &out, "tool", "nm", filepath.Join(dir, b.Name())); err != nil {
			return err
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// An address, a type and a name, which may contain spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripBrackets(f[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// stripBrackets removes every bracketed part of a symbol, nested ones
// included, so that a generic function's instantiations all name it.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// declarations maps every function declared in a non-test file of a
// library package of the main module, named as the linker names it, to
// its position.
func declarations() (map[string]string, error) {
	var out bytes.Buffer
	if err := gocmd(".", &out, "list", "-f", `{{if ne .Name "main"}}{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}{{end}}`, "./..."); err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	decls := map[string]string{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		for _, file := range f[2:] {
			path := filepath.Join(f[1], file)
			src, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range src.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				pos := fset.Position(fn.Pos())
				rel, err := filepath.Rel(wd, pos.Filename)
				if err != nil {
					return nil, err
				}
				decls[f[0]+"."+receiver(fn)+fn.Name.Name] = fmt.Sprintf("%s:%d", rel, pos.Line)
			}
		}
	}
	return decls, nil
}

// receiver returns the linker's prefix for fn's receiver: "T." for a value
// receiver, "(*T)." for a pointer one, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t, star := fn.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// keepList reads the keep-list: a name and its reason on each line, with
// blank lines and #-comments skipped.
func keepList() (map[string]string, error) {
	data, err := os.ReadFile(keepFile)
	if err != nil {
		return nil, err
	}
	keep := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason := line, ""
		if j := strings.IndexAny(line, " \t"); j >= 0 {
			name, reason = line[:j], strings.TrimSpace(line[j:])
		}
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", keepFile, i+1, name)
		}
		if keep[name] != "" {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", keepFile, i+1, name)
		}
		keep[name] = reason
	}
	return keep, nil
}
