package progen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestTiersCoverEveryReportedTier: a Failure's reproduction line runs
// `cmd/progen -tier <Tier>`, which looks the name up in Tiers. So every
// tier name passed to fail() anywhere in the package must be in the
// table, and every exported Check*Seed wrapper must be some tier's Check.
func TestTiersCoverEveryReportedTier(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]bool{}
	for _, tier := range Tiers {
		fn := runtime.FuncForPC(reflect.ValueOf(tier.Check).Pointer()).Name()
		checks[fn[strings.LastIndex(fn, ".")+1:]] = true
	}
	reported, wrappers := 0, 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					name := n.Name.Name
					if n.Recv == nil && strings.HasPrefix(name, "Check") && strings.HasSuffix(name, "Seed") {
						wrappers++
						if !checks[name] {
							t.Errorf("%s is no tier's Check", name)
						}
					}
				case *ast.CallExpr:
					id, ok := n.Fun.(*ast.Ident)
					if !ok || id.Name != "fail" || len(n.Args) == 0 {
						return true
					}
					lit, ok := n.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Errorf("%s: fail() with a non-literal tier", fset.Position(n.Pos()))
						return true
					}
					name, _ := strconv.Unquote(lit.Value)
					reported++
					if _, ok := LookupTier(name); !ok {
						t.Errorf("%s: fail() reports tier %q, which cmd/progen does not know (tiers: %s)",
							fset.Position(n.Pos()), name, TierNames())
					}
				}
				return true
			})
		}
	}
	if reported == 0 || wrappers != len(Tiers) {
		t.Fatalf("found %d fail() calls and %d Check*Seed wrappers for %d tiers", reported, wrappers, len(Tiers))
	}
}
