package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// LockOrder machine-checks the DESIGN.md §6 lock hierarchy inside each
// function body:
//
//   - Stripe mutexes (stripes.MutexSet) may be acquired raw only one stripe
//     at a time. Holding two raw stripes of one set, or extending a held set
//     with a raw Lock, bypasses the ordered acquisition that LockPair /
//     LockSet / LockKeys provide and is a deadlock waiting on a hash
//     collision.
//   - A raw stripe lock acquired inside a loop must be released inside that
//     loop iteration; accumulating stripes one per iteration is an unordered
//     multi-lock in disguise.
//   - Acquisitions of the named lock sets must go strictly downward through
//     the declared partial order (endpoint stripes → SegmentID stripes →
//     walk-store segment lock → counter stripes → graph shards). Same-level
//     nesting across distinct sets is flagged too: within a level, order is
//     only defined by an ordered-acquisition primitive.
//   - knownMu is taken while holding nothing else, and nothing tracked is
//     taken while holding it.
//
// The traversal is branch-sensitive (if/switch arms fork from the same
// pre-state and merge, terminating arms don't merge) and recognizes the
// ordered-pair idiom — `if i < j { a.Lock(); b.Lock() } else { b.Lock();
// a.Lock() }` — as a single ordered acquisition, so primitives like
// graph.lockPair and stripes.LockPair check clean by their own shape.
// Function literals are independent scopes. The model is still linear
// within an arm and deliberately conservative; a reviewed
// //lint:allow lockorder <reason> records the exceptions, of which
// Validate's freeze-everything pass is the canonical one.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "stripe locks acquired only via the ordered primitives, and named lock sets only in §6 order",
	Run:  runLockOrder,
}

// heldLock is one tracked acquisition still live in the scan.
type heldLock struct {
	class lockClass
	setID string
	raw   bool // a single raw stripe of a MutexSet (Lock(i) or Of(k).Lock())
	write bool
	pos   token.Pos
}

// lockEvent is the classified effect of one call expression.
type lockEvent struct {
	kind     int // 0 none, 1 acquire, 2 release
	lock     heldLock
	setID    string
	readOnly bool
}

const (
	evNone = iota
	evAcquire
	evRelease
)

type lockOrderScan struct {
	pass *Pass
	held []heldLock
	// ofLocals maps a local *sync.Mutex variable produced by
	// `lk := set.Of(key)` back to its originating set.
	ofLocals map[types.Object]ofLocal
}

type ofLocal struct {
	setID string
	class lockClass
}

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			s := &lockOrderScan{pass: pass, ofLocals: make(map[types.Object]ofLocal)}
			s.stmts(body.List)
		})
	}
	return nil
}

// stmts walks a statement list, returning whether it definitely transfers
// control away (return / panic / break / continue / goto).
func (s *lockOrderScan) stmts(list []ast.Stmt) bool {
	for _, st := range list {
		if s.stmt(st) {
			return true
		}
	}
	return false
}

func (s *lockOrderScan) stmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.stmts(st.List)
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt)
	case *ast.IfStmt:
		return s.ifStmt(st)
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.exprScan(st.Cond)
		}
		s.loopBody(st.Body, func() {
			if st.Post != nil {
				s.stmt(st.Post)
			}
		})
		return false
	case *ast.RangeStmt:
		s.exprScan(st.X)
		s.loopBody(st.Body, nil)
		return false
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.exprScan(st.Tag)
		}
		return s.caseArms(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.stmt(st.Assign)
		return s.caseArms(st.Body)
	case *ast.SelectStmt:
		return s.caseArms(st.Body)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.exprScan(e)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the linear arm.
		return st.Tok != token.FALLTHROUGH
	case *ast.DeferStmt:
		// A deferred release keeps the lock held for the rest of the scan,
		// which matches the §6 semantics: everything after runs under it.
		// Deferred acquisitions are nonsense we leave to review.
		return false
	case *ast.ExprStmt:
		if isPanicCall(st.X) {
			s.exprScan(st.X)
			return true
		}
		s.exprScan(st.X)
		return false
	case *ast.AssignStmt:
		s.trackOfAssign(st)
		for _, e := range st.Rhs {
			s.exprScan(e)
		}
		for _, e := range st.Lhs {
			s.exprScan(e)
		}
		return false
	case *ast.GoStmt:
		// The goroutine body is a separate scope (funcBodies visits it);
		// only the call's arguments run here.
		for _, a := range st.Call.Args {
			s.exprScan(a)
		}
		return false
	default:
		if st != nil {
			s.nodeScan(st)
		}
		return false
	}
}

// ifStmt forks the lock state per arm and merges the arms that fall
// through. The ordered-pair idiom is recognized first and applied as one
// grouped acquisition.
func (s *lockOrderScan) ifStmt(st *ast.IfStmt) bool {
	if st.Init != nil {
		s.stmt(st.Init)
	}
	s.exprScan(st.Cond)
	if s.orderedPairIdiom(st) {
		return false
	}
	pre := slices.Clone(s.held)
	thenTerm := s.stmts(st.Body.List)
	afterThen := s.held
	s.held = slices.Clone(pre)
	elseTerm := false
	if st.Else != nil {
		elseTerm = s.stmt(st.Else)
	}
	afterElse := s.held
	switch {
	case thenTerm && elseTerm:
		s.held = pre
		return st.Else != nil
	case thenTerm:
		s.held = afterElse
	case elseTerm:
		s.held = afterThen
	default:
		s.held = mergeHeld(afterThen, afterElse)
	}
	return false
}

// caseArms forks per clause from the same pre-state and merges the arms
// that fall through (plus the no-arm-matched state).
func (s *lockOrderScan) caseArms(body *ast.BlockStmt) bool {
	pre := slices.Clone(s.held)
	merged := slices.Clone(pre)
	allTerm := true
	hasArm := false
	for _, c := range body.List {
		var exprs []ast.Expr
		var comm ast.Stmt
		var arm []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			exprs, arm = c.List, c.Body
		case *ast.CommClause:
			comm, arm = c.Comm, c.Body
		default:
			continue
		}
		hasArm = true
		s.held = slices.Clone(pre)
		for _, e := range exprs {
			s.exprScan(e)
		}
		if comm != nil {
			s.stmt(comm)
		}
		if s.stmts(arm) {
			continue
		}
		allTerm = false
		merged = mergeHeld(merged, s.held)
	}
	s.held = merged
	return hasArm && allTerm && switchExhaustive(body)
}

// switchExhaustive is a conservative "has a default/else arm" check; only
// then can all-arms-terminate terminate the switch.
func switchExhaustive(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// loopBody walks a loop body once and flags raw stripe locks still held at
// the end of the iteration.
func (s *lockOrderScan) loopBody(body *ast.BlockStmt, post func()) {
	mark := len(s.held)
	s.stmts(body.List)
	if post != nil {
		post()
	}
	kept := s.held[:mark:mark]
	for _, h := range s.held[mark:] {
		if h.raw {
			s.pass.Reportf(h.pos,
				"raw stripe lock on %s acquired inside a loop and still held at loop end; freeze the whole set up front with LockSet/LockKeys", h.setID)
			continue
		}
		kept = append(kept, h)
	}
	s.held = kept
}

// mergeHeld unions two post-arm states by (class, setID).
func mergeHeld(a, b []heldLock) []heldLock {
	out := slices.Clone(a)
	for _, h := range b {
		found := false
		for _, g := range out {
			if g.class == h.class && g.setID == h.setID {
				found = true
				break
			}
		}
		if !found {
			out = append(out, h)
		}
	}
	return out
}

// orderedPairIdiom recognizes
//
//	if i < j { a.Lock(); b.Lock() } else { b.Lock(); a.Lock() }
//
// (any comparison operator, both arms pure acquisition sequences over the
// same lock set in any order) and applies it as one grouped ordered
// acquisition.
func (s *lockOrderScan) orderedPairIdiom(st *ast.IfStmt) bool {
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	elseBlock, ok := st.Else.(*ast.BlockStmt)
	if !ok {
		return false
	}
	thenLocks, ok := pureAcquisitions(s, st.Body.List)
	if !ok || len(thenLocks) < 2 {
		return false
	}
	elseLocks, ok := pureAcquisitions(s, elseBlock.List)
	if !ok || len(elseLocks) != len(thenLocks) {
		return false
	}
	key := func(h heldLock) string { return h.setID }
	tk := make([]string, len(thenLocks))
	ek := make([]string, len(elseLocks))
	for i := range thenLocks {
		tk[i] = key(thenLocks[i])
		ek[i] = key(elseLocks[i])
	}
	slices.Sort(tk)
	slices.Sort(ek)
	if !slices.Equal(tk, ek) {
		return false
	}
	s.acquire(heldLock{
		class: thenLocks[0].class,
		setID: strings.Join(tk, "+"),
		raw:   false,
		write: true,
		pos:   st.Pos(),
	})
	return true
}

// pureAcquisitions classifies a statement list that consists solely of
// lock-acquisition calls, without applying them.
func pureAcquisitions(s *lockOrderScan, list []ast.Stmt) ([]heldLock, bool) {
	var locks []heldLock
	for _, st := range list {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return nil, false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		ev := s.callEvent(call)
		if ev.kind != evAcquire {
			return nil, false
		}
		locks = append(locks, ev.lock)
	}
	return locks, true
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// exprScan applies lock events of every call nested in an expression,
// skipping function literals.
func (s *lockOrderScan) exprScan(e ast.Expr) { s.nodeScan(e) }

func (s *lockOrderScan) nodeScan(n ast.Node) {
	ast.Inspect(n, func(child ast.Node) bool {
		switch child := child.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			s.trackOfAssign(child)
		case *ast.CallExpr:
			s.applyCall(child)
		}
		return true
	})
}

// trackOfAssign records `lk := set.Of(key)` so later lk.Lock() calls are
// attributed to the set.
func (s *lockOrderScan) trackOfAssign(a *ast.AssignStmt) {
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Of" || !isMutexSetType(s.pass.Info.TypeOf(sel.X)) {
		return
	}
	id, ok := a.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := s.pass.Info.Defs[id]
	if obj == nil {
		obj = s.pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	s.ofLocals[obj] = ofLocal{setID: exprString(sel.X), class: s.classifySet(sel.X)}
}

// classifySet ranks a MutexSet expression: by field name when it is a
// field selector, SegmentID level otherwise.
func (s *lockOrderScan) classifySet(e ast.Expr) lockClass {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return classifyMutexSetField(sel.Sel.Name)
	}
	return classSegStripe
}

func (s *lockOrderScan) applyCall(call *ast.CallExpr) {
	switch ev := s.callEvent(call); ev.kind {
	case evAcquire:
		s.acquire(ev.lock)
	case evRelease:
		s.release(ev.setID, ev.readOnly)
	}
}

// callEvent classifies one call expression as a lock acquisition or
// release of a tracked lock, without mutating the scan state.
func (s *lockOrderScan) callEvent(call *ast.CallExpr) lockEvent {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}
	}
	method := sel.Sel.Name
	recv := sel.X

	// stripes.MutexSet primitives.
	if isMutexSetType(s.pass.Info.TypeOf(recv)) {
		setID := exprString(recv)
		class := s.classifySet(recv)
		switch method {
		case "Lock":
			return lockEvent{kind: evAcquire, lock: heldLock{class: class, setID: setID, raw: true, write: true, pos: call.Pos()}}
		case "LockPair", "LockSet", "LockKeys":
			return lockEvent{kind: evAcquire, lock: heldLock{class: class, setID: setID, write: true, pos: call.Pos()}}
		case "Unlock", "UnlockPair", "UnlockSet":
			return lockEvent{kind: evRelease, setID: setID}
		}
		return lockEvent{}
	}

	// `set.Of(k).Lock()` without the intermediate local.
	if inner, ok := recv.(*ast.CallExpr); ok && (method == "Lock" || method == "Unlock") {
		if isel, ok := inner.Fun.(*ast.SelectorExpr); ok && isel.Sel.Name == "Of" && isMutexSetType(s.pass.Info.TypeOf(isel.X)) {
			setID := exprString(isel.X)
			if method == "Lock" {
				return lockEvent{kind: evAcquire, lock: heldLock{class: s.classifySet(isel.X), setID: setID, raw: true, write: true, pos: call.Pos()}}
			}
			return lockEvent{kind: evRelease, setID: setID}
		}
	}

	// `lk.Lock()` where lk came from set.Of(key).
	if id, ok := recv.(*ast.Ident); ok {
		if obj := s.pass.Info.Uses[id]; obj != nil {
			if of, tracked := s.ofLocals[obj]; tracked {
				switch method {
				case "Lock":
					return lockEvent{kind: evAcquire, lock: heldLock{class: of.class, setID: of.setID, raw: true, write: true, pos: call.Pos()}}
				case "Unlock":
					return lockEvent{kind: evRelease, setID: of.setID}
				}
				return lockEvent{}
			}
		}
	}

	// Plain sync.Mutex / sync.RWMutex fields from the §6 table.
	fieldSel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}
	}
	class := classifySyncMutex(s.pass, fieldSel)
	if class == classNone {
		return lockEvent{}
	}
	setID := exprString(recv)
	switch method {
	case "Lock":
		return lockEvent{kind: evAcquire, lock: heldLock{class: class, setID: setID, write: true, pos: call.Pos()}}
	case "RLock":
		return lockEvent{kind: evAcquire, lock: heldLock{class: class, setID: setID, pos: call.Pos()}}
	case "Unlock":
		return lockEvent{kind: evRelease, setID: setID}
	case "RUnlock":
		return lockEvent{kind: evRelease, setID: setID, readOnly: true}
	}
	return lockEvent{}
}

func (s *lockOrderScan) acquire(nl heldLock) {
	for _, h := range s.held {
		switch {
		case h.setID == nl.setID && h.class == nl.class:
			if h.raw && nl.raw {
				s.pass.Reportf(nl.pos,
					"second raw stripe lock on %s while one is already held; acquire both via LockPair/LockSet/LockKeys", nl.setID)
			} else if h.raw || nl.raw {
				s.pass.Reportf(nl.pos,
					"raw stripe lock on %s extends a held multi-lock of the same set; fold the key into the LockSet/LockKeys acquisition", nl.setID)
			} else if h.write || nl.write {
				s.pass.Reportf(nl.pos, "%s acquired while already held (self-deadlock)", nl.setID)
			}
		case h.class == classKnown:
			s.pass.Reportf(nl.pos,
				"%s acquired while holding knownMu; §6 requires knownMu to be held alone", nl.setID)
		case nl.class == classKnown:
			s.pass.Reportf(nl.pos,
				"knownMu acquired while holding %s (%s); §6 requires knownMu to be held alone", h.setID, h.class)
		case h.class.level() > 0 && nl.class.level() > 0 && h.class.level() > nl.class.level():
			s.pass.Reportf(nl.pos,
				"acquires %s (%s) while holding %s (%s); §6 acquisitions go downward only", nl.setID, nl.class, h.setID, h.class)
		case h.class.level() > 0 && h.class == nl.class:
			s.pass.Reportf(nl.pos,
				"acquires %s while already holding %s — both %s; within-level multi-lock must go through an ordered primitive", nl.setID, h.setID, nl.class)
		}
	}
	s.held = append(s.held, nl)
}

// release drops the most recent matching acquisition. Unmatched releases
// are ignored: arms are walked independently, so an early-return unlock
// legitimately precedes the main-path unlock.
func (s *lockOrderScan) release(setID string, readOnly bool) {
	for i := len(s.held) - 1; i >= 0; i-- {
		h := s.held[i]
		if h.setID != setID {
			continue
		}
		if readOnly && h.write {
			continue
		}
		s.held = append(s.held[:i], s.held[i+1:]...)
		return
	}
}
