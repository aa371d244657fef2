package cfg

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc type-checks src (a file body) and returns the named
// function's declaration plus the type info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil
}

// findCall returns the block-level node containing the call f(...).
func findCall(t *testing.T, g *Graph, fd *ast.FuncDecl, callee string) (ast.Node, *ast.CallExpr) {
	t.Helper()
	var call *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := c.Fun.(*ast.Ident); ok && id.Name == callee {
			call = c
			return false
		}
		return true
	})
	if call == nil {
		t.Fatalf("no call to %s", callee)
	}
	node, blk := g.NodeAt(call.Pos())
	if blk == nil {
		t.Fatalf("call to %s not in any block", callee)
	}
	return node, call
}

const guardSrc = `package p

func sink(float64) {}
func use(float64)  {}

func guarded(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	sink(a / b)
	return a / b
}

func unguarded(a, b float64) {
	use(a / b)
	if b == 0 {
		return
	}
}

func panicGuard(b float64) {
	if b <= 0 {
		panic("bad")
	}
	sink(b)
}
`

func TestGuardDominatesUse(t *testing.T) {
	fd, _ := parseFunc(t, guardSrc, "guarded")
	g := New(fd.Body)
	sinkNode, _ := findCall(t, g, fd, "sink")
	// The condition b == 0 must dominate the sink call.
	var cond ast.Node
	for c := range g.conds {
		cond = c
	}
	if cond == nil {
		t.Fatal("no condition recorded")
	}
	if !g.NodeDominates(cond, sinkNode) {
		t.Error("guard should dominate the use after the early return")
	}
}

func TestGuardAfterUseDoesNotDominate(t *testing.T) {
	fd, _ := parseFunc(t, guardSrc, "unguarded")
	g := New(fd.Body)
	useNode, _ := findCall(t, g, fd, "use")
	var cond ast.Node
	for c := range g.conds {
		cond = c
	}
	if g.NodeDominates(cond, useNode) {
		t.Error("a guard after the use must not dominate it")
	}
}

const rangeSrc = `package p

func sink(float64) {}

func clampInRange(xs []float64) {
	for b := range xs {
		v := xs[b]
		if v < 0 {
			v = 0
		}
		sink(v)
	}
}
`

// TestNodeAtInsideRangeBody pins the lookup of a position inside a range
// loop's body: it resolves to the body's own statement, not to the
// RangeStmt the loop-head block holds, so the clamp's condition dominates
// it.
func TestNodeAtInsideRangeBody(t *testing.T) {
	fd, _ := parseFunc(t, rangeSrc, "clampInRange")
	g := New(fd.Body)
	sinkNode, _ := findCall(t, g, fd, "sink")
	if _, ok := sinkNode.(*ast.RangeStmt); ok {
		t.Fatal("NodeAt resolved a body position to the enclosing RangeStmt")
	}
	var cond ast.Node
	for c := range g.conds {
		cond = c
	}
	if cond == nil {
		t.Fatal("no condition recorded")
	}
	if !g.NodeDominates(cond, sinkNode) {
		t.Error("the clamp condition should dominate the use after it in the loop body")
	}
	rs := fd.Body.List[0].(*ast.RangeStmt)
	if at, _ := g.NodeAt(rs.X.Pos()); at != rs {
		t.Errorf("range operand resolved to %T, want the RangeStmt", at)
	}
}

func TestPanicTerminatesBlock(t *testing.T) {
	fd, _ := parseFunc(t, guardSrc, "panicGuard")
	g := New(fd.Body)
	sinkNode, _ := findCall(t, g, fd, "sink")
	var cond ast.Node
	for c := range g.conds {
		cond = c
	}
	if !g.NodeDominates(cond, sinkNode) {
		t.Error("guard with panic arm should dominate the code after it")
	}
	// The panic statement's block must have no successors.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if c, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if len(blk.Succs) != 0 {
							t.Errorf("panic block has %d successors, want 0", len(blk.Succs))
						}
					}
				}
			}
		}
	}
}

const reachSrc = `package p

import "context"

func f(ctx context.Context) context.Context { return ctx }
func g(ctx context.Context)                 {}

func resolve(ctx context.Context, cond bool) {
	bg := context.Background()
	alias := bg
	g(alias)
	if cond {
		alias = ctx
	}
	g(alias)
}

func loopkill(n int) {
	x := 1
	for i := 0; i < n; i++ {
		x = 2
	}
	g2(x)
}

func g2(int) {}
`

func TestSourcesResolveChain(t *testing.T) {
	fd, info := parseFunc(t, reachSrc, "resolve")
	g := New(fd.Body)
	r := Reach(g, fd, info)

	// Find both g(alias) calls in order.
	var calls []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "g" {
				calls = append(calls, c)
			}
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("found %d calls to g, want 2", len(calls))
	}

	at1, _ := g.NodeAt(calls[0].Pos())
	src1 := r.Sources(calls[0].Args[0], at1)
	if len(src1) != 1 {
		t.Fatalf("first call: %d sources, want 1", len(src1))
	}
	if c, ok := src1[0].(*ast.CallExpr); !ok || exprString(c.Fun) != "context.Background" {
		t.Errorf("first call should resolve to context.Background(), got %T", src1[0])
	}

	// After the conditional reassignment both defs reach: Background()
	// on one path, the ctx parameter (opaque) on the other → unknown.
	at2, _ := g.NodeAt(calls[1].Pos())
	if src2 := r.Sources(calls[1].Args[0], at2); src2 != nil {
		t.Errorf("second call: sources should be unknown (nil), got %d", len(src2))
	}
}

func TestLoopDefsMerge(t *testing.T) {
	fd, info := parseFunc(t, reachSrc, "loopkill")
	g := New(fd.Body)
	r := Reach(g, fd, info)
	var call *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "g2" {
				call = c
			}
		}
		return true
	})
	at, _ := g.NodeAt(call.Pos())
	var xv *types.Var
	for v := range exportDefs(r) {
		if v.Name() == "x" {
			xv = v
		}
	}
	if xv == nil {
		t.Fatal("x not tracked")
	}
	defs := r.DefsAt(xv, at)
	if len(defs) != 2 {
		t.Fatalf("x has %d reaching defs after the loop, want 2 (init and loop body)", len(defs))
	}
}

func exportDefs(r *ReachingDefs) map[*types.Var][]Def { return r.defs }

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return fmt.Sprintf("%T", e)
}

const shapeSrc = `package p

func shapes(n int, ch chan int) int {
	total := 0
	switch {
	case n == 0:
		return -1
	case n > 10:
		total = 10
	default:
		total = n
	}
	for _, v := range []int{1, 2, 3} {
		total += v
	}
	select {
	case v := <-ch:
		total += v
	default:
	}
	return total
}
`

func TestBuildShapes(t *testing.T) {
	fd, info := parseFunc(t, shapeSrc, "shapes")
	g := New(fd.Body)
	if len(g.Blocks) < 8 {
		t.Fatalf("suspiciously few blocks: %d", len(g.Blocks))
	}
	// Case guards are hoisted: both case expressions share the entry
	// block chain and dominate the default clause body.
	var caseConds []ast.Node
	for c := range g.conds {
		caseConds = append(caseConds, c)
	}
	if len(caseConds) != 2 {
		t.Fatalf("recorded %d case conditions, want 2", len(caseConds))
	}
	// Reaching defs must survive the full construction.
	r := Reach(g, fd, info)
	if r == nil {
		t.Fatal("Reach returned nil")
	}
	// Every reachable block-level statement of the source appears in
	// exactly one block.
	counts := make(map[ast.Node]int)
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			counts[n]++
			if counts[n] > 1 {
				t.Errorf("node at %v appears in multiple blocks", n.Pos())
			}
		}
	}
	if strings.Contains(fmt.Sprint(counts), "impossible") {
		t.Fatal("unreachable")
	}
}
