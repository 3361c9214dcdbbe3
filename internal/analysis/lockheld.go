package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld flags blocking calls — network, file, and pipe I/O, JSON
// stream encode/decode, time.Sleep, sync.Cond/WaitGroup waits — made
// while a sync.Mutex or sync.RWMutex is held. This is the PR 1 bug
// class: the iTracker held its view mutex across the distance-matrix
// recompute and serialized every concurrent query behind it; held
// across actual I/O the same shape turns one slow client into a
// stalled portal.
//
// The per-package pass is intraprocedural and linear: it tracks
// Lock/RLock and Unlock/RUnlock on each mutex expression through a
// function body, treating `defer mu.Unlock()` as held-until-return
// (which it is — the point is what runs under the lock, not whether it
// is eventually released). Branch bodies are scanned with a copy of
// the held set, so the common early-unlock-and-return shape does not
// leak state out of its branch; a deferred unlock inside a branch,
// however, means the lock outlives the branch (it is released only at
// function return), so those locks are merged back into the outer
// held set. Function literals are scanned independently with an empty
// held set.
//
// A blocking call one or more function calls away from the lock is not
// seen. The serving paths where that matters — a mutex in front of a
// view refresh, which runs through interface calls no static pass can
// follow — are pinned at run time instead (DESIGN.md §12).
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no sync mutex held across I/O, network, JSON encode/decode, or sleeps",
	Run:  runLockHeld,
}

// blockingFuncs lists package-level functions that block on I/O or the
// clock, by package path.
var blockingFuncs = map[string]map[string]bool{
	"time": set("Sleep"),
	"io": set("Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull",
		"ReadAtLeast", "WriteString"),
	"os": set("Open", "OpenFile", "Create", "ReadFile", "WriteFile",
		"Remove", "RemoveAll", "Mkdir", "MkdirAll", "Rename", "Stat",
		"Lstat", "ReadDir", "Truncate"),
	"net": set("Dial", "DialTimeout", "DialIP", "DialTCP", "DialUDP",
		"DialUnix", "Listen", "ListenTCP", "ListenUDP", "ListenUnix",
		"ListenPacket", "LookupAddr", "LookupCNAME", "LookupHost",
		"LookupIP", "LookupMX", "LookupNS", "LookupPort", "LookupSRV",
		"LookupTXT"),
	"net/http": set("Get", "Head", "Post", "PostForm", "ReadRequest",
		"ReadResponse", "Serve", "ServeTLS", "ListenAndServe",
		"ListenAndServeTLS", "ServeContent", "ServeFile", "ServeFileFS",
		"Error", "NotFound", "Redirect"),
}

// blockingMethods lists methods that block, keyed by the package that
// declares them. A nil set means every method from that package (io's
// interfaces are I/O by definition).
var blockingMethods = map[string]map[string]bool{
	"io": nil,
	"net": set("Read", "Write", "Close", "Accept", "ReadFrom", "WriteTo",
		"ReadFromUDP", "WriteToUDP", "ReadMsgUDP", "WriteMsgUDP",
		"LookupAddr", "LookupCNAME", "LookupHost", "LookupIP", "LookupMX",
		"LookupNS", "LookupPort", "LookupSRV", "LookupTXT"),
	"net/http": set("Do", "Get", "Head", "Post", "PostForm", "Write",
		"WriteHeader", "Flush", "Shutdown", "Close", "Serve", "ServeTLS",
		"ListenAndServe", "ListenAndServeTLS", "ServeHTTP", "Read"),
	"bufio": set("Flush", "Read", "ReadByte", "ReadBytes", "ReadLine",
		"ReadRune", "ReadSlice", "ReadString", "Write", "WriteByte",
		"WriteRune", "WriteString", "WriteTo", "ReadFrom", "Peek",
		"Scan", "Discard"),
	"encoding/json": set("Encode", "Decode", "Token", "More"),
	"os": set("Read", "ReadAt", "ReadFrom", "Write", "WriteAt",
		"WriteString", "Close", "Sync", "Seek", "Readdir", "ReadDir",
		"Readdirnames", "Truncate", "Chmod", "Chown"),
	"sync": set("Wait"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// heldLock records where a mutex was taken and whether its release is
// deferred — a deferred unlock keeps the lock held until function
// return, so it escapes the branch that took it.
type heldLock struct {
	pos      token.Pos
	deferred bool
}

func runLockHeld(p *Pkg) []Finding {
	var out []Finding
	forEachFuncBody(p, func(_ *ast.File, body *ast.BlockStmt) {
		s := &lockScanner{p: p}
		s.stmts(body.List, map[string]heldLock{})
		out = append(out, s.out...)
	})
	return out
}

type lockScanner struct {
	p   *Pkg
	out []Finding
}

// stmts walks a statement list, mutating held as Lock/Unlock calls are
// seen and reporting blocking calls made while held is non-empty.
func (s *lockScanner) stmts(list []ast.Stmt, held map[string]heldLock) {
	for _, st := range list {
		s.stmt(st, held)
	}
}

// branchStmts scans a branch body against a copy of the held set, then
// merges deferred locks back: `if cond { mu.Lock(); defer mu.Unlock() }`
// leaves the mutex held on every path after the branch.
func (s *lockScanner) branchStmts(list []ast.Stmt, held map[string]heldLock) {
	cp := copyHeld(held)
	s.stmts(list, cp)
	mergeDeferred(held, cp)
}

func (s *lockScanner) stmt(st ast.Stmt, held map[string]heldLock) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if op, key := s.mutexOp(call); op != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = heldLock{pos: call.Pos()}
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		s.check(st.X, held)
	case *ast.DeferStmt:
		if op, key := s.mutexOp(st.Call); op == "Unlock" || op == "RUnlock" {
			// The mutex stays held until return; later statements are
			// still scanned against it, and the deferred release makes
			// it outlive any branch it was taken in.
			if h, ok := held[key]; ok {
				h.deferred = true
				held[key] = h
			}
			return
		}
		// The deferred call itself runs at return, in an unknowable
		// order relative to deferred unlocks; only its arguments are
		// evaluated now.
		for _, a := range st.Call.Args {
			s.check(a, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine does not hold this function's locks;
		// only the call's arguments are evaluated here.
		for _, a := range st.Call.Args {
			s.check(a, held)
		}
	case *ast.BlockStmt:
		s.stmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.check(st.Cond, held)
		s.branchStmts(st.Body.List, held)
		if st.Else != nil {
			cp := copyHeld(held)
			s.stmt(st.Else, cp)
			mergeDeferred(held, cp)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.check(st.Cond, held)
		}
		s.branchStmts(st.Body.List, held)
	case *ast.RangeStmt:
		s.check(st.X, held)
		s.branchStmts(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.check(st.Tag, held)
		}
		for _, c := range st.Body.List {
			s.branchStmts(c.(*ast.CaseClause).Body, held)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			s.branchStmts(c.(*ast.CaseClause).Body, held)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			s.branchStmts(c.(*ast.CommClause).Body, held)
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	default:
		s.check(st, held)
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	cp := make(map[string]heldLock, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

// mergeDeferred copies branch-local locks with deferred releases back
// into the outer held set; they are held until function return.
func mergeDeferred(dst, branch map[string]heldLock) {
	for k, v := range branch {
		if v.deferred {
			if _, ok := dst[k]; !ok {
				dst[k] = v
			}
		}
	}
}

// check reports every blocking call inside n while held is non-empty.
func (s *lockScanner) check(n ast.Node, held map[string]heldLock) {
	if n == nil || len(held) == 0 {
		return
	}
	inspectSkippingFuncLits(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what := directBlocking(s.p, call); what != "" {
			for key, h := range held {
				s.out = append(s.out, Finding{
					Pos:  s.p.Fset.Position(call.Pos()),
					Rule: "lockheld",
					Msg: fmt.Sprintf("%s called while %s is locked (at line %d); release the mutex before blocking",
						what, key, s.p.Fset.Position(h.pos).Line),
				})
			}
		}
		return true
	})
}

// mutexOp reports whether call is Lock/RLock/Unlock/RUnlock on a
// sync.Mutex, sync.RWMutex, or sync.Locker, returning the operation
// and the receiver expression as the mutex key.
func (s *lockScanner) mutexOp(call *ast.CallExpr) (op, key string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	f := calleeFunc(s.p, call)
	if funcPkgPath(f) != "sync" || !isMethod(f) {
		return "", ""
	}
	return name, types.ExprString(sel.X)
}

// directBlocking classifies a call as directly blocking, returning a
// short description of the callee or "".
func directBlocking(p *Pkg, call *ast.CallExpr) string {
	f := calleeFunc(p, call)
	if f == nil {
		return ""
	}
	pkg, name := funcPkgPath(f), f.Name()
	if isMethod(f) {
		names, ok := blockingMethods[pkg]
		if ok && (names == nil || names[name]) {
			return fmt.Sprintf("(%s).%s", pkg, name)
		}
		return ""
	}
	if blockingFuncs[pkg][name] {
		return pkg + "." + name
	}
	return ""
}
