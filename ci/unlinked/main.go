// Command unlinked lists every function declared in the module's
// non-test sources outside cmd/, bench/, examples/ and ci/, and says
// whether a product binary links it. It reads the binaries' symbols
// (`go tool nm` output) on stdin and prints one line per function:
//
//	linked|unlinked <symbol> <file>:<line> <lines>
//
// A symbol is the import path, a dot, and the function's name, with the
// receiver's type name for a method (`quarry/internal/xmd.Design.Marshal`):
// pointer receivers and generic instantiations (`[go.shape.int]`) are
// folded into the plain name on both sides. ci/linked.sh compares the
// unlinked set with ci/linked.allow. Standard library only.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	linked := map[string]bool{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for in.Scan() {
		f := strings.Fields(in.Text())
		switch {
		case len(f) >= 3: // address, type, name (which may hold spaces)
			linked[fold(strings.Join(f[2:], " "))] = true
		case len(f) > 0:
			linked[fold(f[len(f)-1])] = true
		}
	}
	if err := in.Err(); err != nil {
		return err
	}

	type fn struct {
		sym, pos string
		lines    int
	}
	var fns []fn
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "cmd", "bench", "examples", "ci":
				return filepath.SkipDir
			}
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			fns = append(fns, fn{pkg + "." + name, fmt.Sprintf("%s:%d", path, start.Line), end.Line - start.Line + 1})
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].sym < fns[j].sym })
	out := bufio.NewWriter(os.Stdout)
	for _, f := range fns {
		state := "unlinked"
		if linked[f.sym] {
			state = "linked"
		}
		fmt.Fprintf(out, "%s %s %s %d\n", state, f.sym, f.pos, f.lines)
	}
	return out.Flush()
}

// fold drops a symbol's generic instantiations ("[...]", nested or not)
// and the pointer of a method's receiver: "p.(*T[go.shape.int]).M" → "p.T.M".
func fold(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

// recvName is the type name of a method's receiver, without its pointer
// or type parameters.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
