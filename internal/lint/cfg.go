package lint

import "go/ast"

// This file is the dataflow substrate the hotpathalloc and lockbalance
// analyzers share: a compact intra-procedural control-flow graph over
// ast.FuncDecl (and ast.FuncLit) bodies. It is deliberately approximate in
// the directions that keep analyses sound-ish without a full SSA package:
//
//   - loops contribute two edges (skip and one traversal), so path
//     enumeration terminates without widening;
//   - break/continue/goto/fallthrough end their block conservatively by
//     edging to the function exit (an analysis never reasons past them on
//     the wrong path);
//   - defer statements are collected per function, not modeled as edges —
//     analyses apply them at every exit.
type cfgBlock struct {
	// stmts are the straight-line statements of the block, in order.
	// Control statements (if/for/switch/...) never appear here; their
	// conditions and bodies are split into successor blocks.
	stmts []ast.Stmt
	succs []*cfgBlock
	// ret is the ReturnStmt terminating the block, if any.
	ret *ast.ReturnStmt
	// terminal marks a block with no fallthrough successor (return, panic,
	// or a conservatively-ended branch statement).
	terminal bool
}

type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
	// defers are every DeferStmt in the body, in source order.
	defers []*ast.DeferStmt
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}}
	b.cur = b.newBlock()
	b.g.entry = b.cur
	b.stmtList(body.List)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.stmt(s.Stmt)
	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.stmts = append(b.cur.stmts, s.Init)
		}
		// The condition is evaluated in the current block; record it so
		// analyses see calls inside it.
		b.cur.stmts = append(b.cur.stmts, &ast.ExprStmt{X: s.Cond})
		cond := b.cur
		thenB := b.newBlock()
		cond.succs = append(cond.succs, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		var elseEnd *cfgBlock
		if s.Else != nil {
			elseB := b.newBlock()
			cond.succs = append(cond.succs, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		if !thenEnd.terminal {
			thenEnd.succs = append(thenEnd.succs, join)
		}
		if s.Else == nil {
			cond.succs = append(cond.succs, join)
		} else if !elseEnd.terminal {
			elseEnd.succs = append(elseEnd.succs, join)
		}
		b.cur = join
	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.stmts = append(b.cur.stmts, s.Init)
		}
		if s.Cond != nil {
			b.cur.stmts = append(b.cur.stmts, &ast.ExprStmt{X: s.Cond})
		}
		head := b.cur
		bodyB := b.newBlock()
		head.succs = append(head.succs, bodyB)
		b.cur = bodyB
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.cur.stmts = append(b.cur.stmts, s.Post)
		}
		after := b.newBlock()
		if !b.cur.terminal {
			b.cur.succs = append(b.cur.succs, after)
		}
		if s.Cond != nil || s.Init != nil || s.Post != nil {
			// Conditional loop: may execute zero times.
			head.succs = append(head.succs, after)
		}
		b.cur = after
	case *ast.RangeStmt:
		b.cur.stmts = append(b.cur.stmts, &ast.ExprStmt{X: s.X})
		head := b.cur
		bodyB := b.newBlock()
		head.succs = append(head.succs, bodyB)
		b.cur = bodyB
		b.stmtList(s.Body.List)
		after := b.newBlock()
		if !b.cur.terminal {
			b.cur.succs = append(b.cur.succs, after)
		}
		head.succs = append(head.succs, after) // zero iterations
		b.cur = after
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.branching(s)
	case *ast.ReturnStmt:
		b.cur.stmts = append(b.cur.stmts, s)
		b.cur.ret = s
		b.cur.terminal = true
		b.startBlockDetached()
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: end the block conservatively.
		b.cur.terminal = true
		b.startBlockDetached()
	case *ast.DeferStmt:
		b.g.defers = append(b.g.defers, s)
		b.cur.stmts = append(b.cur.stmts, s)
	case *ast.GoStmt:
		b.cur.stmts = append(b.cur.stmts, s)
	default:
		b.cur.stmts = append(b.cur.stmts, s)
	}
}

// branching handles switch/type-switch/select uniformly: every case body
// is a branch from the current block, all joining afterwards; a missing
// default adds a skip edge.
func (b *cfgBuilder) branching(s ast.Stmt) {
	var tag []ast.Stmt
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(list []ast.Stmt) {
		for _, cs := range list {
			switch cs := cs.(type) {
			case *ast.CaseClause:
				if cs.List == nil {
					hasDefault = true
				}
				bodies = append(bodies, cs.Body)
			case *ast.CommClause:
				if cs.Comm == nil {
					hasDefault = true
				} else {
					bodies = append(bodies, append([]ast.Stmt{cs.Comm}, cs.Body...))
					continue
				}
				bodies = append(bodies, cs.Body)
			}
		}
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			tag = append(tag, s.Init)
		}
		if s.Tag != nil {
			tag = append(tag, &ast.ExprStmt{X: s.Tag})
		}
		collect(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			tag = append(tag, s.Init)
		}
		tag = append(tag, s.Assign)
		collect(s.Body.List)
	case *ast.SelectStmt:
		collect(s.Body.List)
	}
	b.cur.stmts = append(b.cur.stmts, tag...)
	head := b.cur
	join := b.newBlock()
	for _, body := range bodies {
		blk := b.newBlock()
		head.succs = append(head.succs, blk)
		b.cur = blk
		b.stmtList(body)
		if !b.cur.terminal {
			b.cur.succs = append(b.cur.succs, join)
		}
	}
	if !hasDefault || len(bodies) == 0 {
		head.succs = append(head.succs, join)
	}
	b.cur = join
}

// startBlockDetached begins a fresh, unreachable block for statements
// following a terminator (dead code still gets parsed, not analyzed).
func (b *cfgBuilder) startBlockDetached() {
	b.cur = b.newBlock()
}

// maxPaths caps path enumeration per function; beyond it the function is
// skipped rather than analyzed partially (soundness over coverage).
const maxPaths = 4096

// eachPath enumerates acyclic-ish paths (every block visited at most once
// per path — loop bodies contribute one traversal via their skip/once
// edges) from entry to every terminal or dead-end block, invoking visit
// with the block sequence. Returns false if the cap was hit.
func (g *funcCFG) eachPath(visit func(path []*cfgBlock)) bool {
	count := 0
	var path []*cfgBlock
	onPath := map[*cfgBlock]bool{}
	var walk func(blk *cfgBlock) bool
	walk = func(blk *cfgBlock) bool {
		if onPath[blk] {
			return true // cycle: this path already covered one traversal
		}
		path = append(path, blk)
		onPath[blk] = true
		defer func() {
			path = path[:len(path)-1]
			onPath[blk] = false
		}()
		advanced := false
		for _, s := range blk.succs {
			if onPath[s] {
				continue
			}
			advanced = true
			if !walk(s) {
				return false
			}
		}
		if !advanced {
			count++
			if count > maxPaths {
				return false
			}
			visit(path)
		}
		return true
	}
	return walk(g.entry)
}
