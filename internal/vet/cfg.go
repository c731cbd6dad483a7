package vet

import "amplify/internal/cc"

// The analyzer runs over an explicit control-flow graph per body:
// straight-line statements are grouped into basic blocks, if/else
// introduces the usual diamond, while/for introduce a loop head with a
// back edge, and return jumps to the dedicated exit block. Branch
// conditions (and for-loop post expressions) appear as explicit cond
// instructions in the block that evaluates them, so their side effects
// and uses are analyzed exactly once per traversal.

// instr is one CFG instruction: a non-structural cc.Stmt (*cc.VarDecl,
// *cc.ExprStmt, *cc.DeleteStmt, *cc.Return, *cc.Spawn, *cc.Join), or,
// when stmt is nil, an expression cond evaluated at the end of a block
// for control flow or effect.
type instr struct {
	stmt cc.Stmt
	cond cc.Expr
}

// block is a basic block.
type block struct {
	id     int
	instrs []instr
	succs  []*block
}

// graph is the CFG of one function or method body.
type graph struct {
	blocks []*block
	entry  *block
	exit   *block
}

// cfgBuilder lowers bodies to graphs. It reuses one graph and its
// blocks from body to body, so a graph is valid until the next build.
type cfgBuilder struct{ g graph }

// build lowers a body to its control-flow graph.
func (b *cfgBuilder) build(body *cc.Block) *graph {
	g := &b.g
	g.blocks = g.blocks[:0]
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	end := b.stmts(g.entry, body.Stmts)
	b.edge(end, g.exit)
	return g
}

func (b *cfgBuilder) newBlock() *block {
	id := len(b.g.blocks)
	var blk *block
	if id < cap(b.g.blocks) {
		blk = b.g.blocks[:id+1][id]
	}
	if blk == nil {
		blk = &block{}
	}
	*blk = block{id: id, instrs: blk.instrs[:0], succs: blk.succs[:0]}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) { from.succs = append(from.succs, to) }

func (b *cfgBuilder) stmts(cur *block, list []cc.Stmt) *block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt lowers s starting in cur and returns the block where execution
// continues afterwards.
func (b *cfgBuilder) stmt(cur *block, s cc.Stmt) *block {
	switch s := s.(type) {
	case *cc.Block:
		return b.stmts(cur, s.Stmts)
	case *cc.If:
		cur.instrs = append(cur.instrs, instr{cond: s.Cond})
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		b.edge(b.stmt(then, s.Then), join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			b.edge(b.stmt(els, s.Else), join)
		} else {
			b.edge(cur, join)
		}
		return join
	case *cc.While:
		head := b.newBlock()
		b.edge(cur, head)
		head.instrs = append(head.instrs, instr{cond: s.Cond})
		body := b.newBlock()
		b.edge(head, body)
		b.edge(b.stmt(body, s.Body), head)
		after := b.newBlock()
		b.edge(head, after)
		return after
	case *cc.For:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.instrs = append(head.instrs, instr{cond: s.Cond})
		}
		body := b.newBlock()
		b.edge(head, body)
		end := b.stmt(body, s.Body)
		if s.Post != nil {
			end.instrs = append(end.instrs, instr{cond: s.Post})
		}
		b.edge(end, head)
		after := b.newBlock()
		b.edge(head, after)
		return after
	case *cc.Return:
		cur.instrs = append(cur.instrs, instr{stmt: s})
		b.edge(cur, b.g.exit)
		// Statements after a return are unreachable; give them a block
		// with no predecessors so the dataflow never visits them.
		return b.newBlock()
	default:
		cur.instrs = append(cur.instrs, instr{stmt: s})
		return cur
	}
}
