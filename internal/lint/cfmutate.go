package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// cfPkgPath is the one package allowed to touch CF fields directly.
const cfPkgPath = "birch/internal/cf"

// CFMutate flags writes to the exported fields (N, LS, SS) of cf.CF from
// outside birch/internal/cf.
//
// The CF Additivity Theorem only holds while every CF is a genuine
// summary: N points, their linear sum, their square sum — mutually
// consistent. A stray `c.N++` or `c.LS[i] = x` outside the cf package
// breaks that consistency invisibly; all mutation must flow through
// AddPoint/Merge/Unmerge (and construction through FromPoint or the
// row codec's validating decoders), which preserve it. Reading fields is fine; the pass
// flags assignments, compound assignments, ++/--, element writes through
// LS, and taking a field's address (which launders a later write).
//
// Composite literals (cf.CF{...}) are permitted: they build a value in
// one shot and are validated wherever they cross an API boundary.
type CFMutate struct{}

// Name implements Pass.
func (CFMutate) Name() string { return "cfmutate" }

// Doc implements Pass.
func (CFMutate) Doc() string {
	return "flags mutation (or address-taking) of cf.CF fields outside internal/cf; additivity must flow through AddPoint/Merge/Unmerge"
}

// Run implements Pass.
func (p CFMutate) Run(m *Module, pkg *Package) []Diagnostic {
	if pkg.Path == cfPkgPath || strings.HasPrefix(pkg.Path, cfPkgPath+"/") {
		return nil
	}
	var out []Diagnostic
	flag := func(pos token.Pos, field, how string) {
		out = append(out, Diagnostic{
			Pos:  m.Fset.Position(pos),
			Pass: p.Name(),
			Message: fmt.Sprintf("%s of cf.CF field %s outside internal/cf; use AddPoint/Merge/Unmerge (or the cf row codec) so additivity invariants hold",
				how, field),
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, ok := cfFieldTarget(pkg, lhs); ok {
						flag(lhs.Pos(), field, "assignment")
					}
				}
			case *ast.IncDecStmt:
				if field, ok := cfFieldTarget(pkg, n.X); ok {
					flag(n.X.Pos(), field, n.Tok.String())
				}
			case *ast.UnaryExpr:
				if n.Op != token.AND {
					return true
				}
				if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
					if field, ok := namedCFField(pkg, sel); ok {
						flag(n.Pos(), field, "taking the address")
					}
				}
			}
			return true
		})
	}
	return out
}

// cfFieldTarget reports whether an assignment target writes a cf.CF field
// — either the field itself (c.N = ...) or an element of LS (c.LS[i] = ...).
func cfFieldTarget(pkg *Package, lhs ast.Expr) (string, bool) {
	switch e := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return namedCFField(pkg, e)
	case *ast.IndexExpr:
		if sel, ok := unparen(e.X).(*ast.SelectorExpr); ok {
			if field, ok := namedCFField(pkg, sel); ok {
				return field + " element", true
			}
		}
	}
	return "", false
}
