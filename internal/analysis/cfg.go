package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// CFG is a per-function control-flow graph over basic blocks. It is
// built purely from syntax (go/ast): every function body yields one
// Entry block, one Exit block that all returns, panics, and the final
// fallthrough feed into, and a chain of deferred-call blocks hanging
// off Exit in LIFO order (so path-sensitive analyses see deferred
// work as running after every exit).
//
// The graph is conservative rather than precise: conditions are not
// evaluated (both branch edges always exist), `for { ... }` with no
// condition has no exit edge past break/return, and a select with no
// default has no fall-through edge (it blocks until a case fires).
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one basic block: a straight-line run of statements and
// sub-expressions with branching only at the end, via Succs.
type Block struct {
	Index int
	// Kind labels where the block came from ("entry", "exit",
	// "if.then", "for.head", "case", "defer", ...); it exists for
	// tests and debugging, not analysis logic.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

func (b *Block) add(n ast.Node) { b.Nodes = append(b.Nodes, n) }

// String renders the graph one block per line as
// "index:kind -> succ,succ" for table-driven tests.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "%d:%s", b.Index, b.Kind)
		if len(b.Succs) > 0 {
			idx := make([]int, len(b.Succs))
			for i, s := range b.Succs {
				idx[i] = s.Index
			}
			sort.Ints(idx)
			sb.WriteString(" -> ")
			for i, n := range idx {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%d", n)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BuildCFG builds the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		c:      &CFG{},
		labels: map[string]*Block{},
	}
	b.c.Entry = b.newBlock("entry")
	b.c.Exit = b.newBlock("exit")
	b.cur = b.c.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.c.Exit)
	for _, g := range b.gotos {
		if target := b.labels[g.label]; target != nil {
			b.edge(g.from, target)
		}
	}
	// Deferred calls run after every function exit, last-in first-out.
	tail := b.c.Exit
	for i := len(b.defers) - 1; i >= 0; i-- {
		db := b.newBlock("defer")
		db.add(b.defers[i])
		b.edge(tail, db)
		tail = db
	}
	return b.c
}

// Escapes reports whether some path from seeds reaches one of goals
// without first passing through a block stop accepts — the negation of
// "every path from here hits a stop block before it gets there". A goal
// that stop accepts counts as a stop, not as an escape.
func Escapes(seeds []*Block, stop func(*Block) bool, goals ...*Block) bool {
	reach := Reachable(seeds, func(b *Block) []*Block {
		if stop(b) {
			return nil
		}
		return b.Succs
	}, func(a, b *Block) bool { return a.Index < b.Index })
	for _, g := range goals {
		if _, ok := reach[g]; ok && !stop(g) {
			return true
		}
	}
	return false
}

type cfgBuilder struct {
	c   *CFG
	cur *Block
	// frames tracks enclosing breakable statements (loops, switch,
	// select) for break/continue resolution, innermost last.
	frames []breakFrame
	labels map[string]*Block
	gotos  []pendingGoto
	defers []*ast.DeferStmt
	// pendingLabel is the label of a LabeledStmt whose inner statement
	// is about to be built; loops and switches consume it so labeled
	// break/continue can find them.
	pendingLabel string
}

type breakFrame struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.c.Blocks), Kind: kind}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// deadBlock starts a predecessor-less block for statements after an
// unconditional jump; they stay in the graph but are unreachable from
// Entry, which is exactly what path analyses should see.
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, st := range list {
		b.stmt(st)
	}
}

func (b *cfgBuilder) stmt(st ast.Stmt) {
	label := b.takeLabel()
	switch st := st.(type) {
	case *ast.ReturnStmt:
		b.cur.add(st)
		b.edge(b.cur, b.c.Exit)
		b.deadBlock()
	case *ast.BranchStmt:
		b.branch(st)
	case *ast.ExprStmt:
		b.cur.add(st)
		if isPanicCall(st.X) {
			b.edge(b.cur, b.c.Exit)
			b.deadBlock()
		}
	case *ast.DeferStmt:
		b.cur.add(st)
		b.defers = append(b.defers, st)
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, label)
	case *ast.RangeStmt:
		b.rangeStmt(st, label)
	case *ast.SwitchStmt:
		b.switchLike(st, st.Init, st.Tag, st.Body, label, "switch")
	case *ast.TypeSwitchStmt:
		b.switchLike(st, st.Init, nil, st.Body, label, "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(st, label)
	case *ast.LabeledStmt:
		target := b.newBlock("label." + st.Label.Name)
		b.edge(b.cur, target)
		b.cur = target
		b.labels[st.Label.Name] = target
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
	default:
		b.cur.add(st)
	}
}

func (b *cfgBuilder) branch(st *ast.BranchStmt) {
	b.cur.add(st)
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				b.edge(b.cur, f.brk)
				break
			}
		}
		b.deadBlock()
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				b.edge(b.cur, f.cont)
				break
			}
		}
		b.deadBlock()
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		b.deadBlock()
	case "fallthrough":
		// The edge to the next case clause is wired by switchLike.
	}
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.cur.add(st.Init)
	}
	b.cur.add(st.Cond)
	cond := b.cur

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmts(st.Body.List)
	thenEnd := b.cur

	done := b.newBlock("if.done")
	if st.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(st.Else)
		b.edge(b.cur, done)
	} else {
		b.edge(cond, done)
	}
	b.edge(thenEnd, done)
	b.cur = done
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.cur.add(st.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	done := b.newBlock("for.done")
	if st.Cond != nil {
		head.add(st.Cond)
		b.edge(head, done)
	}
	cont := head
	var post *Block
	if st.Post != nil {
		post = b.newBlock("for.post")
		post.add(st.Post)
		b.edge(post, head)
		cont = post
	}
	body := b.newBlock("for.body")
	b.edge(head, body)
	b.frames = append(b.frames, breakFrame{label: label, brk: done, cont: cont})
	b.cur = body
	b.stmts(st.Body.List)
	b.edge(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string) {
	b.cur.add(st.X)
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	done := b.newBlock("range.done")
	b.edge(head, done)
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.frames = append(b.frames, breakFrame{label: label, brk: done, cont: head})
	b.cur = body
	b.stmts(st.Body.List)
	b.edge(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// switchLike builds switch and type-switch graphs: the tag block fans
// out to every case clause; clauses without fallthrough feed the done
// block; a missing default adds a tag->done edge.
func (b *cfgBuilder) switchLike(st ast.Stmt, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label, kind string) {
	if init != nil {
		b.cur.add(init)
	}
	if tag != nil {
		b.cur.add(tag)
	}
	if ts, ok := st.(*ast.TypeSwitchStmt); ok {
		b.cur.add(ts.Assign)
	}
	cond := b.cur
	done := b.newBlock(kind + ".done")
	b.frames = append(b.frames, breakFrame{label: label, brk: done})

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock("case")
		for _, e := range c.List {
			blocks[i].add(e)
		}
		if c.List == nil {
			hasDefault = true
		}
		b.edge(cond, blocks[i])
	}
	if !hasDefault {
		b.edge(cond, done)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		b.stmts(c.Body)
		if endsInFallthrough(c.Body) && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, done)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, label string) {
	cond := b.cur
	done := b.newBlock("select.done")
	b.frames = append(b.frames, breakFrame{label: label, brk: done})
	// No default clause means the select blocks until some case fires,
	// so there is never a cond->done edge: either a case runs, or (with
	// zero cases) the statement never completes.
	for _, c := range st.Body.List {
		comm := c.(*ast.CommClause)
		blk := b.newBlock("comm")
		if comm.Comm != nil {
			blk.add(comm.Comm)
		}
		b.edge(cond, blk)
		b.cur = blk
		b.stmts(comm.Body)
		b.edge(b.cur, done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// endsInFallthrough reports whether a case clause body's final
// statement is a fallthrough (which the spec only allows there).
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
