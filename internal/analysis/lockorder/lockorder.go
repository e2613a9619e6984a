// Package lockorder checks lock acquisition discipline
// interprocedurally: every function's held-lock set is computed over
// its control-flow graph, function summaries propagate acquire /
// release / blocking effects across calls, and three invariants are
// enforced.
//
//  1. No lock is acquired while already held (self-deadlock on Go's
//     non-reentrant mutexes), whether the second acquisition is
//     lexical or buried in a callee.
//  2. Lock acquisition order is globally consistent: if one code path
//     acquires A before B, no path may acquire B before A. Edges are
//     collected per package across all functions (including through
//     callee summaries) and any edge on a cycle in the resulting
//     order graph is reported.
//  3. In the remote tier only, no lock may be held across a blocking
//     operation: channel sends and receives, selects without a
//     default, time.Sleep, net.Conn Read/Write-family calls, or any
//     call whose summary (transitively) blocks. The held set is
//     followed through helpers like Client.Commit → doOnce →
//     muxConn.do, where the blocking select is three frames down.
//     Read locks count: a reader parked on the network under an RLock
//     (or rw.RLocker().Lock()) stalls the next writer, and with a
//     writer queued, every later reader.
//
// Lock identity is canonical by type, not by expression: c.mu on a
// *Client receiver and cl.mu on another *Client variable are the same
// lock "Client.mu", and p.shards[i].mu is "shard.mu" for every index
// — what matters for ordering is the lock's role, not which instance
// a particular function happens to touch. Package-level mutexes keep
// their variable name; mutexes local to a function are prefixed with
// the function name so they never unify across functions.
//
// Known bounds, by design: function literals are separate analysis
// roots with an empty entry set (a goroutine does not inherit its
// spawner's locks — holding a lock while *spawning* is fine, the
// goroutine runs on its own time); deferred calls other than Unlock
// are ignored; operations inside a select's communication clauses are
// part of the atomic select; go statements do not propagate callee
// effects. Test files are skipped.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hypermodel/internal/analysis"
)

// remotePrefix gates the blocking-operation check (invariant 3) to the
// remote tier: the store intentionally holds writeMu across disk
// fsyncs, but the remote close contract forbids waiting on the network
// or on channels while holding a session lock.
const remotePrefix = "hypermodel/internal/remote"

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "interprocedural lock discipline: no re-acquisition of a held lock, " +
		"globally consistent acquisition order, and (in the remote tier) no " +
		"blocking operation — channel, select, sleep, conn I/O — while a lock is held",
	Run: run,
}

// blockingConnMethods are the net.Conn methods that block on the
// network; Close and the deadline setters are exempt.
var blockingConnMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
}

func run(pass *analysis.Pass) error {
	gated := pass.Pkg.Path() == remotePrefix || strings.HasPrefix(pass.Pkg.Path(), remotePrefix+"/")
	if analysis.FindImport(pass.Pkg, "sync") == nil {
		return nil // nothing to lock
	}

	var files []*ast.File
	for _, f := range pass.Files {
		if !pass.IsTestFile(f.Pos()) {
			files = append(files, f)
		}
	}
	a := &analyzer{
		pass:  pass,
		graph: analysis.NewCallGraph(pass.Pkg, pass.TypesInfo, files),
		cfgs:  make(map[*analysis.FuncInfo]*analysis.CFG),
		gated: gated,
		edges: make(map[string]map[string]token.Pos),
	}
	if netPkg := analysis.FindImport(pass.Pkg, "net"); netPkg != nil {
		if obj := netPkg.Scope().Lookup("Conn"); obj != nil {
			a.conn, _ = obj.Type().Underlying().(*types.Interface)
		}
	}

	// Phase 1: function summaries to a fixpoint (handles recursion).
	s := analysis.Summarizer[lockSummary]{
		Graph: a.graph,
		Equal: summaryEqual,
		Compute: func(fi *analysis.FuncInfo, get func(*types.Func) (lockSummary, bool)) lockSummary {
			return a.summarize(fi, get)
		},
	}
	a.summaries = s.Run()

	// Phase 2: re-run the dataflow per function against the final
	// summaries and report, visiting each reachable block exactly once.
	final := func(obj *types.Func) (lockSummary, bool) {
		sum, ok := a.summaries[obj]
		return sum, ok && a.graph.FuncOf(obj) != nil
	}
	for _, fi := range a.graph.Funcs() {
		cfg := a.cfgFor(fi)
		in, err := analysis.Forward(cfg, a.flow(fi, nil, final))
		if err != nil {
			return err
		}
		for _, blk := range cfg.Blocks {
			st, ok := in[blk]
			if !ok {
				continue // unreachable
			}
			st = st.clone()
			for _, n := range blk.Nodes {
				a.node(fi, n, st, nil, final, true)
			}
		}
	}

	a.reportCycles()
	return nil
}

// lockState maps canonical lock name → position of the acquisition
// currently holding it.
type lockState map[string]token.Pos

func (st lockState) clone() lockState {
	c := make(lockState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func (st lockState) names() string {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// lockSummary is a function's interprocedural effect. The zero value
// is the lattice bottom.
type lockSummary struct {
	acquires  map[string]bool // locks (transitively) acquired inside, even if released again
	releases  map[string]bool // locks released that were not acquired locally (caller-release helpers)
	held      map[string]bool // locks still held when the function returns
	blocks    bool            // performs (transitively) a blocking operation
	blockDesc string          // first blocking reason, for diagnostics
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func summaryEqual(a, b lockSummary) bool {
	return a.blocks == b.blocks &&
		setsEqual(a.acquires, b.acquires) &&
		setsEqual(a.releases, b.releases) &&
		setsEqual(a.held, b.held)
}

// effects accumulates a summary during one Compute pass.
type effects struct {
	acquires  map[string]bool
	releases  map[string]bool
	blocks    bool
	blockDesc string
}

type analyzer struct {
	pass      *analysis.Pass
	graph     *analysis.CallGraph
	cfgs      map[*analysis.FuncInfo]*analysis.CFG
	summaries map[*types.Func]lockSummary
	conn      *types.Interface // net.Conn, when net is in the import graph
	gated     bool             // blocking checks enabled

	// edges is the package-wide acquisition-order graph: edges[a][b]
	// is the first position where b was acquired while a was held.
	edges map[string]map[string]token.Pos
}

func (a *analyzer) cfgFor(fi *analysis.FuncInfo) *analysis.CFG {
	cfg, ok := a.cfgs[fi]
	if !ok {
		cfg = analysis.NewCFG(fi.Body())
		a.cfgs[fi] = cfg
	}
	return cfg
}

// flow builds the forward dataflow problem for one function. acc is
// non-nil during summary computation; lookup resolves callee
// summaries.
func (a *analyzer) flow(fi *analysis.FuncInfo, acc *effects, lookup func(*types.Func) (lockSummary, bool)) analysis.Flow[lockState] {
	return analysis.Flow[lockState]{
		Entry: func() lockState { return lockState{} },
		Join: func(x, y lockState) lockState {
			u := x.clone()
			for k, v := range y {
				if _, ok := u[k]; !ok {
					u[k] = v
				}
			}
			return u
		},
		Equal: func(x, y lockState) bool {
			if len(x) != len(y) {
				return false
			}
			for k := range x {
				if _, ok := y[k]; !ok {
					return false
				}
			}
			return true
		},
		Transfer: func(b *analysis.Block, in lockState) lockState {
			st := in.clone()
			for _, n := range b.Nodes {
				a.node(fi, n, st, acc, lookup, false)
			}
			return st
		},
	}
}

// summarize computes one function's summary by running its dataflow
// with the current callee summaries.
func (a *analyzer) summarize(fi *analysis.FuncInfo, get func(*types.Func) (lockSummary, bool)) lockSummary {
	cfg := a.cfgFor(fi)
	acc := &effects{acquires: map[string]bool{}, releases: map[string]bool{}}
	in, err := analysis.Forward(cfg, a.flow(fi, acc, get))
	if err != nil {
		// Non-convergence is an engine bug; fail open with what we have.
		return lockSummary{}
	}

	deferred := map[string]bool{}
	for _, d := range cfg.Defers {
		if key, op, ok := a.mutexOp(fi, d.Call); ok && op == opUnlock {
			deferred[key] = true
		}
	}
	// A deferred unlock of a lock never acquired here releases the
	// caller's lock at return.
	for k := range deferred {
		if !acc.acquires[k] {
			acc.releases[k] = true
		}
	}

	sum := lockSummary{
		acquires:  acc.acquires,
		releases:  acc.releases,
		held:      map[string]bool{},
		blocks:    acc.blocks,
		blockDesc: acc.blockDesc,
	}
	if exit, ok := in[cfg.Exit]; ok {
		for k := range exit {
			if !deferred[k] {
				sum.held[k] = true
			}
		}
	}
	return sum
}

// node applies one CFG node to the state. During summary computation
// (acc non-nil) it accumulates effects; during the report pass (rep
// true) it emits diagnostics and records order edges.
func (a *analyzer) node(fi *analysis.FuncInfo, n ast.Node, st lockState, acc *effects, lookup func(*types.Func) (lockSummary, bool), rep bool) {
	analysis.WalkNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred calls run at exit (only their Unlocks matter,
			// handled via cfg.Defers); go statements run concurrently
			// and do not extend this function's path.
			_ = m
			return false

		case *ast.SelectStmt:
			if !hasDefaultClause(m) {
				a.blocked(m.Pos(), "select with no default", "select with no default", st, acc, rep)
			}
			return false // comm clauses are part of the atomic select

		case *ast.SendStmt:
			a.blocked(m.Pos(), "channel send", "channel send", st, acc, rep)
			return true // the value expression may contain calls

		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				a.blocked(m.Pos(), "channel receive", "channel receive", st, acc, rep)
			}
			return true

		case *ast.CallExpr:
			return a.call(fi, m, st, acc, lookup, rep)
		}
		return true
	})
}

// call applies one call expression to the state and reports issues at
// it. Returns whether WalkNode should descend into the call's
// children.
func (a *analyzer) call(fi *analysis.FuncInfo, call *ast.CallExpr, st lockState, acc *effects, lookup func(*types.Func) (lockSummary, bool), rep bool) bool {
	if key, op, ok := a.mutexOp(fi, call); ok {
		switch op {
		case opLock:
			if _, already := st[key]; already && rep {
				a.pass.Reportf(call.Pos(),
					"%s acquired while already held: Go mutexes are not reentrant, this path self-deadlocks", key)
			}
			a.acquire(key, call.Pos(), st, acc, rep)
		case opUnlock:
			a.release(key, st, acc)
		}
		return false
	}

	// Builtins (close, len) and conversions have no lock effects;
	// still walk the arguments.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	if tv, ok := a.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}

	// Summaries propagate across *static* calls only. The call graph
	// can resolve dynamic dispatch (class-hierarchy analysis), but
	// wrapper types that delegate through the very interface they
	// implement — CrashFS over vfs.FS, a fault proxy over net.Conn, a
	// remote Client behind hyper.Backend — would make every delegation
	// look like re-entry into the wrapper itself. Without points-to
	// information those reports are noise, so dynamic calls fall back
	// to the external-call heuristics below.
	fn := analysis.Callee(a.pass.TypesInfo, call)
	merged := lockSummary{}
	anyDeclared, anyExternal := false, true
	name := "function value"
	if fn != nil {
		name = fn.Name()
		if !isInterfaceMethod(fn) {
			anyExternal = false
			if sum, ok := lookup(fn); ok {
				anyDeclared = true
				merged = sum
			} else {
				anyExternal = true
			}
		}
	}

	if anyDeclared {
		for k := range merged.releases {
			a.release(k, st, acc)
		}
		if merged.blocks {
			root := merged.blockDesc
			if root == "" {
				root = "blocking operation"
			}
			a.blocked(call.Pos(), fmt.Sprintf("call to %s (blocks: %s)", name, root), root, st, acc, rep)
		}
		for k := range merged.acquires {
			if _, already := st[k]; already && rep {
				a.pass.Reportf(call.Pos(),
					"call to %s acquires %s, which is already held: this path self-deadlocks", name, k)
			}
			a.acquireEdges(k, call.Pos(), st, rep)
			if acc != nil {
				acc.acquires[k] = true
			}
		}
		for k := range merged.held {
			if _, ok := st[k]; !ok {
				st[k] = call.Pos()
			}
		}
	}
	if anyExternal {
		if desc, ok := a.externalBlocking(call, name); ok {
			a.blocked(call.Pos(), desc, desc, st, acc, rep)
		}
	}
	return true
}

// acquire records a direct lock acquisition.
func (a *analyzer) acquire(key string, pos token.Pos, st lockState, acc *effects, rep bool) {
	a.acquireEdges(key, pos, st, rep)
	if acc != nil {
		acc.acquires[key] = true
	}
	if _, ok := st[key]; !ok {
		st[key] = pos
	}
}

// acquireEdges records order-graph edges held → key, anchored at the
// acquisition site (report pass only, so each site contributes once).
func (a *analyzer) acquireEdges(key string, pos token.Pos, st lockState, rep bool) {
	if !rep {
		return
	}
	for h := range st {
		if h == key {
			continue
		}
		m := a.edges[h]
		if m == nil {
			m = make(map[string]token.Pos)
			a.edges[h] = m
		}
		if _, ok := m[key]; !ok {
			m[key] = pos
		}
	}
}

func (a *analyzer) release(key string, st lockState, acc *effects) {
	if _, ok := st[key]; ok {
		delete(st, key)
		return
	}
	if acc != nil {
		acc.releases[key] = true
	}
}

// blocked handles one blocking operation: accumulates the summary fact
// (rootDesc names the underlying primitive, kept stable through call
// chains) and, in the remote tier, reports it if any lock is held.
func (a *analyzer) blocked(pos token.Pos, desc, rootDesc string, st lockState, acc *effects, rep bool) {
	if acc != nil {
		acc.blocks = true
		if acc.blockDesc == "" {
			acc.blockDesc = rootDesc
		}
	}
	if rep && a.gated && len(st) > 0 {
		a.pass.Reportf(pos,
			"%s while holding %s: a blocked lock holder stalls Close and every contender in the remote tier",
			desc, st.names())
	}
}

// externalBlocking classifies calls to functions outside the package:
// time.Sleep, blocking net.Conn methods, and any call handed a
// net.Conn value (it does I/O on the caller's time).
func (a *analyzer) externalBlocking(call *ast.CallExpr, name string) (string, bool) {
	if analysis.IsPkgFunc(a.pass.TypesInfo, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	if a.conn == nil {
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && blockingConnMethods[sel.Sel.Name] {
		if tv, ok := a.pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil && a.implementsConn(tv.Type) {
			return "(net.Conn)." + sel.Sel.Name, true
		}
	}
	for _, arg := range call.Args {
		if tv, ok := a.pass.TypesInfo.Types[arg]; ok && tv.Type != nil && a.implementsConn(tv.Type) {
			return name + " with a net.Conn argument", true
		}
	}
	return "", false
}

func (a *analyzer) implementsConn(t types.Type) bool {
	if types.Implements(t, a.conn) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		return types.Implements(ptr.Elem(), a.conn) || types.Implements(ptr, a.conn)
	}
	return false
}

// reportCycles finds strongly connected components in the package's
// acquisition-order graph and reports every edge inside one.
func (a *analyzer) reportCycles() {
	// Deterministic node order.
	var nodes []string
	seen := map[string]bool{}
	for from, tos := range a.edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	comp := sccs(nodes, a.edges)
	for _, from := range nodes {
		tos := make([]string, 0, len(a.edges[from]))
		for to := range a.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if comp[from] != comp[to] {
				continue // edge not on any cycle
			}
			members := make([]string, 0, 2)
			for _, n := range nodes {
				if comp[n] == comp[from] {
					members = append(members, n)
				}
			}
			a.pass.Reportf(a.edges[from][to],
				"acquiring %s while holding %s creates a lock-order cycle among {%s}: another path acquires them in the reverse order",
				to, from, strings.Join(members, ", "))
		}
	}
}

// sccs computes strongly connected components (iterative Tarjan) and
// returns a component id per node; nodes in the same component are on
// a common cycle.
func sccs(nodes []string, edges map[string]map[string]token.Pos) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var tos []string
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return comp
}

// isInterfaceMethod reports whether fn is declared on an interface
// (i.e. a call through it is dynamic dispatch).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

func hasDefaultClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

type lockOp int

const (
	opLock lockOp = iota
	opUnlock
)

// mutexOp recognizes Lock/RLock/TryLock/Unlock/RUnlock calls on
// sync.Mutex / sync.RWMutex values, and Lock/Unlock on rw.RLocker() as
// RLock/RUnlock, and returns the canonical lock name. TryLock counts
// as an acquisition (may-analysis). Read-side operations get a
// distinct " (read)" key so mismatched pairs never cancel.
func (a *analyzer) mutexOp(fi *analysis.FuncInfo, e ast.Expr) (key string, op lockOp, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	var read bool
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		op = opLock
	case "RLock", "TryRLock":
		op, read = opLock, true
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op, read = opUnlock, true
	default:
		return "", 0, false
	}
	recv := sel.X
	// rw.RLocker().Lock() takes the read half of rw: unwrap to the
	// RWMutex so its key matches direct RLock/RUnlock calls.
	if inner, isLocker := a.rlockerRecv(recv); isLocker {
		if read {
			return "", 0, false // a sync.Locker has no RLock/RUnlock
		}
		recv, read = inner, true
	} else {
		tv, okT := a.pass.TypesInfo.Types[recv]
		if !okT || tv.Type == nil || !isSyncMutex(tv.Type) {
			return "", 0, false
		}
		if read && !isSyncRWMutex(tv.Type) {
			return "", 0, false
		}
	}
	key = a.lockName(fi, recv)
	if read {
		key += " (read)"
	}
	return key, op, true
}

// rlockerRecv returns rw when e is rw.RLocker() on a sync.RWMutex.
func (a *analyzer) rlockerRecv(e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "RLocker" {
		return nil, false
	}
	tv, ok := a.pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncRWMutex(tv.Type) {
		return nil, false
	}
	return sel.X, true
}

// lockName renders a canonical, instance-independent lock identity.
//
//	c.mu        (c *Client)      → "Client.mu"
//	s.shards[i].mu               → "shard.mu"   (via the element type)
//	poolMu      (package var)    → "poolMu"
//	mu          (local)          → "<func>.mu"
//	c.Lock()    (embedded Mutex) → "Client"
func (a *analyzer) lockName(fi *analysis.FuncInfo, e ast.Expr) string {
	e = ast.Unparen(e)
	// Peel the selector chain down to its base.
	var fields []string
	base := e
	for {
		if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
			fields = append([]string{sel.Sel.Name}, fields...)
			base = sel.X
			continue
		}
		break
	}
	join := func(root string) string {
		if len(fields) == 0 {
			return root
		}
		return root + "." + strings.Join(fields, ".")
	}

	// Package-level variable: its name is already canonical.
	if id, ok := ast.Unparen(base).(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil && obj.Parent() == a.pass.Pkg.Scope() {
			return join(obj.Name())
		}
	}
	// Named base type (receiver, local of struct type, call/index
	// result): root at the type name.
	if tv, ok := a.pass.TypesInfo.Types[base]; ok && tv.Type != nil {
		t := tv.Type
		if ptr, okP := t.(*types.Pointer); okP {
			t = ptr.Elem()
		}
		if named, okN := t.(*types.Named); okN {
			if obj := named.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
				return join(obj.Name())
			}
		}
	}
	// Bare sync.Mutex local: qualify with the owning function so two
	// functions' unrelated "mu" locals never unify through summaries.
	// (Locals cannot be held across the function boundary anyway.)
	owner := "literal"
	if fi != nil && fi.Obj != nil {
		owner = fi.Obj.Name()
	}
	return owner + "." + join(types.ExprString(base))
}

func isSyncMutex(t types.Type) bool {
	return isSyncNamed(t, "Mutex") || isSyncNamed(t, "RWMutex")
}

func isSyncRWMutex(t types.Type) bool {
	return isSyncNamed(t, "RWMutex")
}

func isSyncNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}
