package crowdselect_test

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"
)

// TestEnvelopeCodesAreNotRespelled fails, naming file:line, on non-test
// code that compares a crowdclient.APIError's Code with a string
// constant outside the error table's file: a refusal is told by its
// typed error (errors.Is(err, crowddb.ErrFenced)), which the table
// maps to its code in one place.
func TestEnvelopeCodesAreNotRespelled(t *testing.T) {
	fset, pkgs, _ := loadProgram(t)
	var code *types.Var // crowdclient.APIError.Code
	for _, p := range pkgs {
		if p.dir != "internal/crowdclient" {
			continue
		}
		st := p.pkg.Scope().Lookup("APIError").Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == "Code" {
				code = st.Field(i)
			}
		}
	}
	if code == nil {
		t.Fatal("crowdclient.APIError has no Code field")
	}
	for _, p := range pkgs {
		isCode := func(x ast.Expr) bool {
			sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
			return ok && p.info.Selections[sel] != nil && p.info.Selections[sel].Obj() == code
		}
		isSpelled := func(x ast.Expr) bool {
			v := p.info.Types[x].Value
			return v != nil && v.Kind() == constant.String && constant.StringVal(v) != ""
		}
		for _, f := range p.files {
			if filepath.ToSlash(fset.Position(f.Pos()).Filename) == "internal/crowddb/errors.go" {
				continue
			}
			report := func(n ast.Node) {
				t.Errorf("%s: an APIError's Code compared with a spelled code; test errors.Is against the error table's typed error", fset.Position(n.Pos()))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) &&
						(isCode(n.X) && isSpelled(n.Y) || isCode(n.Y) && isSpelled(n.X)) {
						report(n)
					}
				case *ast.SwitchStmt:
					if n.Tag == nil || !isCode(n.Tag) {
						return true
					}
					for _, c := range n.Body.List {
						for _, x := range c.(*ast.CaseClause).List {
							if isSpelled(x) {
								report(x)
							}
						}
					}
				}
				return true
			})
		}
	}
}
