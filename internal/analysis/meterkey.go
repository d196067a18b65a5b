package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Meterkey reports billing meter keys and retry op-site names that are
// built dynamically.
//
// Everything downstream of the meter is keyed by exact op-name strings:
// the query cache samples its invalidation stamp with Meter.OpSum over
// fixed key lists, failed writes are distinguished by the literal
// billing.ErrSuffix, and the benchdiff CI gate compares per-key counts
// between runs — a gate that, by design, fails when a section vanishes
// but cannot notice a key it has never seen. A key assembled at run
// time ("prefix-"+shardName) can therefore drift out of every reader
// silently. The check requires the key operand of billing.Meter.Op,
// billing.Meter.OpErr and retry.Retrier.Do — and the op operands of
// core's paged listings and DeletePrefix, which forward them to
// Retrier.Do from every store package — to be a constant expression.
// The one extra shape allowed is a function parameter (optionally
// concatenated with constants): the function then becomes a key
// forwarder and the same rule is applied to that argument at each of
// its call sites in the package, so the key is still a literal at its
// origin. Forwarding across package boundaries is outside the
// analysis's reach unless the callee is one of the seeds above.
var Meterkey = &Analyzer{
	Name: "meterkey",
	Doc:  "billing meter keys and retry op names must be literals or constants (or parameters fed only by them)",
	Run:  runMeterkey,
}

// meterSeeds maps the metering entry points' full names to the operand
// indexes of their key arguments.
var meterSeeds = map[string][]int{
	"(*" + modulePath + "/internal/cloud/billing.Meter).Op":    {1},
	"(*" + modulePath + "/internal/cloud/billing.Meter).OpErr": {1},
	"(*" + modulePath + "/internal/cloud/retry.Retrier).Do":    {1},
	modulePath + "/internal/core.Pages":                        {2},
	modulePath + "/internal/core.ListPages":                    {2},
	modulePath + "/internal/core.SelectPages":                  {2},
	modulePath + "/internal/core.QueryPages":                   {2},
	modulePath + "/internal/core.QueryAttrPages":               {2},
	modulePath + "/internal/core.DeletePrefix":                 {2, 3},
}

// paramSite locates one declared-function parameter.
type paramSite struct {
	fn    *types.Func
	index int
}

// runMeterkey computes the package's key-forwarding closure and flags
// every dynamically built key argument.
func runMeterkey(pass *Pass) error {
	// Map every declared function's parameter objects to their slot, so
	// a key argument reading a parameter can be traced to the functions
	// whose call sites must then supply constants.
	paramOf := map[types.Object]paramSite{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						paramOf[obj] = paramSite{fn: fn, index: idx}
					}
					idx++
				}
				if len(field.Names) == 0 {
					idx++
				}
			}
		}
	}

	// keyed grows to the fixpoint of "parameters that end up as meter
	// keys"; only then is the final flagging pass exact.
	keyed := map[*types.Func]map[int]bool{}
	for {
		changed := false
		walkKeyArgs(pass, keyed, func(arg ast.Expr) {
			for _, obj := range keyParams(pass, arg) {
				site, ok := paramOf[obj]
				if !ok {
					continue
				}
				if keyed[site.fn] == nil {
					keyed[site.fn] = map[int]bool{}
				}
				if !keyed[site.fn][site.index] {
					keyed[site.fn][site.index] = true
					changed = true
				}
			}
		})
		if !changed {
			break
		}
	}

	walkKeyArgs(pass, keyed, func(arg ast.Expr) {
		if !staticKey(pass, arg, paramOf) {
			pass.Reportf(arg.Pos(), "meter key is built dynamically; use a string literal or package constant so the benchdiff gate sees every key")
		}
	})
	return nil
}

// walkKeyArgs calls fn for the key argument of every metering or
// key-forwarding call in the package.
func walkKeyArgs(pass *Pass, keyed map[*types.Func]map[int]bool, fn func(arg ast.Expr)) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			for _, idx := range meterSeeds[callee.FullName()] {
				if idx < len(call.Args) {
					fn(call.Args[idx])
				}
			}
			for idx := range keyed[callee] {
				if idx < len(call.Args) {
					fn(call.Args[idx])
				}
			}
			return true
		})
	}
}

// staticKey reports whether e is an acceptable key expression: a
// constant, a declared-function parameter, or a concatenation of those.
func staticKey(pass *Pass, e ast.Expr, paramOf map[types.Object]paramSite) bool {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := paramOf[pass.TypesInfo.Uses[e]]
		return ok
	case *ast.BinaryExpr:
		return e.Op == token.ADD && staticKey(pass, e.X, paramOf) && staticKey(pass, e.Y, paramOf)
	}
	return false
}

// keyParams collects the declared-function parameters a key expression
// reads, for forwarding-closure growth. Non-static expressions return
// nothing — they are flagged outright, not traced.
func keyParams(pass *Pass, e ast.Expr) []types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return []types.Object{obj}
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return append(keyParams(pass, e.X), keyParams(pass, e.Y)...)
		}
	}
	return nil
}
