// Package wiresym checks encoder/decoder symmetry for a length-prefixed
// binary wire protocol: for every opcode, the request body the client
// encodes must be the request body the server decodes, field for field.
//
// Invariant: a wire format is defined twice — once where the request is
// built (appends onto a []byte starting with the opcode) and once where
// the dispatch switch routes the body to a handler that reads it back.
// Nothing but convention keeps the two field sequences aligned; a
// missing count prefix or a u32 read against a u64 write silently
// desynchronizes every later field. This analyzer pins both the
// existence of each side and its shape.
//
// The analyzer recovers a field script — a sequence of u8/u16/u32/u64/
// bytes tokens, with loop{...} groups for repeated records — from each
// side and compares them per opcode:
//
//   - Encoder scripts are anchored at an opcode constant entering a
//     byte slice (`[]byte{opX, ...}` or `append(b, opX)`) and read off
//     the binary.LittleEndian.AppendUintN calls, single-byte appends
//     and `append(b, p...)` spreads that follow, with for/range loops
//     becoming loop groups.
//   - Decoder scripts start at the dispatch switch — a switch over one
//     byte of a []byte whose cases are opcode constants — and walk the
//     handler the body is passed to, collecting
//     binary.LittleEndian.UintN reads, body indexing (u8) and body
//     reslicing (bytes). Static in-package calls that receive the body
//     are inlined (decodeCommit behind a handler), as are local
//     `u32 := func() ...` cursor closures, so decoders written against
//     an offset cursor read the same way as flat ones.
//
// Byte-classification switches over an already-extracted byte (the
// client's idempotentOp) and response-status switches (decodeStatus)
// are not dispatch switches: the former's tag is not an index
// expression, the latter's cases are not opcode constants.
//
// Reported, per opcode: a script mismatch (at the encoder), an encoder
// with no dispatch case, a dispatch case with no encoder, a dead
// opcode with neither (reserved wire numbers carry an explicit
// "//hyperlint:allow wiresym" directive), and more than one encoder or
// more than one dispatch case (a copy-paste dispatch error, or two
// builders that can drift apart). Any use of binary.BigEndian
// in a wire package is also flagged — the protocol is little-endian,
// and one big-endian read is exactly the kind of asymmetry the script
// comparison exists to catch.
//
// The multiplexed framing has the same drift hazard one level down:
// every frame opens with a request ID that the client writes and the
// server reads, and the server writes and the client reads back. The
// framing helpers frameID and appendFrameID are therefore pinned to
// exactly one call inside a *Server method and one outside (the
// client's demux core), so a stray hand-rolled header, or a second
// decode path that could disagree about byte order, fails the same way
// a duplicated dispatch case does.
//
// The analyzer activates only for packages that look like a wire codec:
// op-prefixed package-level integer constants, at least one encoder
// anchor and at least one dispatch switch. Requests only; responses
// have no opcode to anchor on. Test files are skipped — tests craft
// raw and deliberately malformed frames.
package wiresym

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"unicode"

	"hypermodel/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc: "per-opcode request encoders and decoders must read and write " +
		"the same field script (wire desync caught at vet time)",
	Run: run,
}

// maxInline bounds how many static-call levels a decoder walk descends
// through below the dispatch handler: the handler's decode helper,
// plus one more for a helper split in two.
const maxInline = 2

// A tok is one field in a wire script. kind is "u8", "u16", "u32",
// "u64" or "bytes"; a "loop" token carries the per-iteration sub-script
// of a repeated record group.
type tok struct {
	kind string
	sub  []tok
}

func (t tok) String() string {
	if t.kind != "loop" {
		return t.kind
	}
	return "loop{" + renderScript(t.sub) + "}"
}

func renderScript(s []tok) string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

func sameScript(a, b []tok) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !sameScript(a[i].sub, b[i].sub) {
			return false
		}
	}
	return true
}

// An ev is one event met during a walk, in source order: either an
// encoder anchor (an opcode constant entering a byte slice) or a field
// token.
type ev struct {
	pos    token.Pos
	anchor *types.Const
	t      tok
}

func evToks(evs []ev) []tok {
	var out []tok
	for _, e := range evs {
		if e.anchor == nil {
			out = append(out, e.t)
		}
	}
	return out
}

// encSite is one encoder: the opcode anchored at pos, followed by the
// field script written after it.
type encSite struct {
	op     *types.Const
	pos    token.Pos
	script []tok
}

// decSite is one dispatch case: the opcode routed at pos to a handler
// whose reads form script. known is false when the handler could not
// be resolved to a declaration in this package.
type decSite struct {
	op     *types.Const
	pos    token.Pos
	script []tok
	known  bool
}

type analyzer struct {
	pass  *analysis.Pass
	ops   map[*types.Const]token.Pos
	decls map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:  pass,
		ops:   opConsts(pass),
		decls: make(map[*types.Func]*ast.FuncDecl),
	}
	if len(a.ops) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					a.decls[fn] = fd
				}
			}
		}
	}
	var encs []encSite
	var decs []decSite
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				encs = append(encs, a.encodersIn(fd)...)
			}
		}
		decs = append(decs, a.dispatchesIn(file)...)
	}
	// Only a package holding both halves of a codec can be checked for
	// symmetry. This keeps the analyzer quiet in packages that merely
	// name constants with an op prefix (state-machine ops, lock ops).
	if len(encs) == 0 || len(decs) == 0 {
		return nil
	}

	type report struct {
		pos token.Pos
		msg string
	}
	var reports []report
	add := func(pos token.Pos, msg string) {
		reports = append(reports, report{pos, msg})
	}

	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "BigEndian" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok &&
					pn.Imported().Path() == "encoding/binary" {
					add(sel.Pos(), "binary.BigEndian in a little-endian wire package")
					return false
				}
			}
			return true
		})
	}

	encByOp := make(map[*types.Const][]encSite)
	for _, e := range encs {
		encByOp[e.op] = append(encByOp[e.op], e)
	}
	decByOp := make(map[*types.Const][]decSite)
	for _, d := range decs {
		decByOp[d.op] = append(decByOp[d.op], d)
	}
	var order []*types.Const
	for c := range a.ops {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Name() < order[j].Name() })
	for _, op := range order {
		oe, od := encByOp[op], decByOp[op]
		if len(oe) > 1 {
			for _, e := range oe {
				add(e.pos, fmt.Sprintf("%s has %d encoders, want exactly 1", op.Name(), len(oe)))
			}
		}
		if len(od) > 1 {
			for _, d := range od {
				add(d.pos, fmt.Sprintf("%s has %d dispatch cases, want exactly 1", op.Name(), len(od)))
			}
		}
		switch {
		case len(oe) == 0 && len(od) == 0:
			add(a.ops[op], "opcode "+op.Name()+" is neither encoded nor dispatched: dead wire surface")
		case len(od) == 0:
			for _, e := range oe {
				add(e.pos, op.Name()+" is encoded here but the request dispatch has no case for it")
			}
		case len(oe) == 0:
			for _, d := range od {
				add(d.pos, op.Name()+" has a dispatch case but no encoder builds its request")
			}
		default:
			for _, e := range oe {
				for _, d := range od {
					if d.known && !sameScript(e.script, d.script) {
						add(e.pos, "request "+op.Name()+": encoder writes ["+
							renderScript(e.script)+"] but decoder reads ["+renderScript(d.script)+"]")
					}
				}
			}
		}
	}
	for _, fd := range a.decls {
		if fd.Recv != nil || (fd.Name.Name != "frameID" && fd.Name.Name != "appendFrameID") {
			continue
		}
		server, client := a.callSites(fd)
		if server != 1 {
			add(fd.Name.Pos(), fmt.Sprintf("framing helper %s has %d server call sites, want exactly 1", fd.Name.Name, server))
		}
		if client != 1 {
			add(fd.Name.Pos(), fmt.Sprintf("framing helper %s has %d client call sites, want exactly 1", fd.Name.Name, client))
		}
	}
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].pos < reports[j].pos })
	for _, r := range reports {
		pass.Reportf(r.pos, "%s", r.msg)
	}
	return nil
}

// callSites counts the references to helper from *Server methods and
// from everywhere else.
func (a *analyzer) callSites(helper *ast.FuncDecl) (server, client int) {
	obj := a.pass.TypesInfo.Defs[helper.Name]
	for fn, fd := range a.decls {
		recv := analysis.ReceiverNamed(fn)
		inServer := recv != nil && recv.Obj().Name() == "Server"
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && a.pass.TypesInfo.Uses[id] == obj {
				if inServer {
					server++
				} else {
					client++
				}
			}
			return true
		})
	}
	return server, client
}

// opConsts collects the package-level op[A-Z]* integer constants — the
// protocol's opcode namespace.
func opConsts(pass *analysis.Pass) map[*types.Const]token.Pos {
	ops := make(map[*types.Const]token.Pos)
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					rest, ok := strings.CutPrefix(name.Name, "op")
					if !ok || rest == "" || !unicode.IsUpper(rune(rest[0])) {
						continue
					}
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					if b, ok := c.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
						ops[c] = name.Pos()
					}
				}
			}
		}
	}
	return ops
}

// opConstOf resolves e to an opcode constant, or nil.
func (a *analyzer) opConstOf(e ast.Expr) *types.Const {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	c, ok := a.pass.TypesInfo.Uses[id].(*types.Const)
	if !ok {
		return nil
	}
	if _, ok := a.ops[c]; !ok {
		return nil
	}
	return c
}

// ---- encoder side ----

// encodersIn extracts every encoder in one function: each anchor opens
// a script that runs to the next anchor or the end of the function.
func (a *analyzer) encodersIn(fd *ast.FuncDecl) []encSite {
	evs := a.writeEvs(fd.Body)
	var out []encSite
	for i, e := range evs {
		if e.anchor == nil {
			continue
		}
		var script []tok
		for _, f := range evs[i+1:] {
			if f.anchor != nil {
				break
			}
			script = append(script, f.t)
		}
		out = append(out, encSite{op: e.anchor, pos: e.pos, script: script})
	}
	return out
}

// writeEvs collects buffer-write events in source order: opcode
// anchors, AppendUintN/PutUintN calls, single-byte appends, byte-slice
// spreads, and loops of any of those. Which buffer a write targets is
// not tracked: an encoder function builds one request.
func (a *analyzer) writeEvs(root ast.Node) []ev {
	var out []ev
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			out = append(out, loopGroup(a.writeEvs(n.Body), n.Pos())...)
			return false
		case *ast.RangeStmt:
			out = append(out, loopGroup(a.writeEvs(n.Body), n.Pos())...)
			return false
		case *ast.CallExpr:
			evs, handled := a.writeCall(n)
			if handled {
				out = append(out, evs...)
				return false
			}
			return true
		case *ast.CompositeLit:
			if evs, ok := a.byteLitEvs(n); ok {
				out = append(out, evs...)
				return false
			}
			return true
		}
		return true
	})
	return out
}

// loopGroup wraps a loop body's events into one loop token. A loop
// containing an anchor is a retry loop rebuilding the request from
// scratch each attempt, not a record group: its events stay serial.
func loopGroup(sub []ev, pos token.Pos) []ev {
	if len(sub) == 0 {
		return nil
	}
	for _, e := range sub {
		if e.anchor != nil {
			return sub
		}
	}
	return []ev{{pos: pos, t: tok{kind: "loop", sub: evToks(sub)}}}
}

func (a *analyzer) writeCall(call *ast.CallExpr) ([]ev, bool) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, ok := a.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || len(call.Args) < 2 {
			return nil, false
		}
		if call.Ellipsis.IsValid() {
			if len(call.Args) == 2 {
				return []ev{{pos: call.Pos(), t: tok{kind: "bytes"}}}, true
			}
			return nil, false
		}
		var out []ev
		for _, arg := range call.Args[1:] {
			if c := a.opConstOf(arg); c != nil {
				out = append(out, ev{pos: arg.Pos(), anchor: c})
			} else {
				out = append(out, ev{pos: arg.Pos(), t: tok{kind: "u8"}})
			}
		}
		return out, true
	}
	name, little, ok := endianCall(a.pass.TypesInfo, call)
	if !ok || !little {
		return nil, false
	}
	var k string
	switch name {
	case "AppendUint16", "PutUint16":
		k = "u16"
	case "AppendUint32", "PutUint32":
		k = "u32"
	case "AppendUint64", "PutUint64":
		k = "u64"
	default:
		return nil, false
	}
	return []ev{{pos: call.Pos(), t: tok{kind: k}}}, true
}

// byteLitEvs matches a []byte literal opening with an opcode constant:
// the anchor, with any further elements as u8 fields.
func (a *analyzer) byteLitEvs(lit *ast.CompositeLit) ([]ev, bool) {
	if len(lit.Elts) == 0 {
		return nil, false
	}
	c := a.opConstOf(lit.Elts[0])
	if c == nil {
		return nil, false
	}
	if tv, ok := a.pass.TypesInfo.Types[lit]; !ok || !isByteSlice(tv.Type) {
		return nil, false
	}
	out := []ev{{pos: lit.Elts[0].Pos(), anchor: c}}
	for _, e := range lit.Elts[1:] {
		out = append(out, ev{pos: e.Pos(), t: tok{kind: "u8"}})
	}
	return out, true
}

// ---- decoder side ----

// dispatchesIn finds request dispatch switches: a switch over one byte
// of a []byte whose cases name opcode constants. Each matching case
// yields one decSite per opcode it routes.
func (a *analyzer) dispatchesIn(file *ast.File) []decSite {
	var out []decSite
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		idx, ok := sw.Tag.(*ast.IndexExpr)
		if !ok {
			return true
		}
		tagID, ok := idx.X.(*ast.Ident)
		if !ok {
			return true
		}
		tagObj := a.pass.TypesInfo.Uses[tagID]
		if tagObj == nil || !isByteSlice(tagObj.Type()) {
			return true
		}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			var ops []*types.Const
			for _, e := range cc.List {
				if c := a.opConstOf(e); c != nil {
					ops = append(ops, c)
				}
			}
			if len(ops) == 0 {
				continue
			}
			script, known := a.caseScript(cc, tagObj)
			for _, op := range ops {
				out = append(out, decSite{op: op, pos: cc.Pos(), script: script, known: known})
			}
		}
		return true
	})
	return out
}

// caseScript walks the handler a dispatch case passes the request body
// to. A case that never hands the body anywhere (opPing) decodes the
// empty script.
func (a *analyzer) caseScript(cc *ast.CaseClause, tagObj types.Object) (script []tok, known bool) {
	tracked := map[types.Object]bool{tagObj: true}
	known = true
	found := false
	for _, s := range cc.Body {
		if found {
			break
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var idxs []int
			for i, arg := range call.Args {
				if bodyArg(a.pass.TypesInfo, arg, tracked) {
					idxs = append(idxs, i)
				}
			}
			if len(idxs) == 0 {
				return true
			}
			found = true
			fn := analysis.Callee(a.pass.TypesInfo, call)
			fd := a.decls[fn]
			if fn == nil || fd == nil {
				known = false
				return false
			}
			next := paramObjs(a.pass.TypesInfo, fd, idxs)
			evs := a.readEvs(fd.Body, next, make(map[types.Object][]tok),
				map[*types.Func]bool{fn: true}, 0)
			script = evToks(evs)
			return false
		})
	}
	return script, known
}

// readEvs collects request-body reads in source order: little-endian
// UintN decodes of the body, body indexing (u8), body reslicing
// (bytes), loops of those, calls of local cursor closures, and static
// in-package calls the body is passed on to (inlined up to maxInline
// levels deep).
func (a *analyzer) readEvs(root ast.Node, tracked map[types.Object]bool,
	closures map[types.Object][]tok, visited map[*types.Func]bool, depth int) []ev {
	var out []ev
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// A cursor closure: u64 := func() ... reading body[off:].
			// Its script replays at every call site.
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if fl, ok := n.Rhs[0].(*ast.FuncLit); ok {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := a.pass.TypesInfo.Defs[id]; obj != nil {
							closures[obj] = evToks(a.readEvs(fl.Body, tracked, closures, visited, depth))
						}
					}
					return false
				}
			}
			return true
		case *ast.ForStmt:
			out = append(out, loopGroup(a.readEvs(n.Body, tracked, closures, visited, depth), n.Pos())...)
			return false
		case *ast.RangeStmt:
			out = append(out, loopGroup(a.readEvs(n.Body, tracked, closures, visited, depth), n.Pos())...)
			return false
		case *ast.CallExpr:
			evs, handled := a.readCall(n, tracked, closures, visited, depth)
			if handled {
				out = append(out, evs...)
				return false
			}
			return true
		case *ast.IndexExpr:
			if trackedIdent(a.pass.TypesInfo, n.X, tracked) {
				out = append(out, ev{pos: n.Pos(), t: tok{kind: "u8"}})
				return false
			}
			return true
		case *ast.SliceExpr:
			if trackedIdent(a.pass.TypesInfo, n.X, tracked) {
				out = append(out, ev{pos: n.Pos(), t: tok{kind: "bytes"}})
				return false
			}
			return true
		}
		return true
	})
	return out
}

func (a *analyzer) readCall(call *ast.CallExpr, tracked map[types.Object]bool,
	closures map[types.Object][]tok, visited map[*types.Func]bool, depth int) ([]ev, bool) {
	if name, little, ok := endianCall(a.pass.TypesInfo, call); ok && little {
		var k string
		switch name {
		case "Uint16":
			k = "u16"
		case "Uint32":
			k = "u32"
		case "Uint64":
			k = "u64"
		}
		if k != "" {
			if len(call.Args) == 1 && mentionsTracked(a.pass.TypesInfo, call.Args[0], tracked) {
				return []ev{{pos: call.Pos(), t: tok{kind: k}}}, true
			}
			// A decode of some other buffer is not a request field,
			// and its argument slice must not count as one either.
			return nil, true
		}
		return nil, false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			if ts, ok := closures[obj]; ok {
				var out []ev
				for _, t := range ts {
					out = append(out, ev{pos: call.Pos(), t: t})
				}
				return out, true
			}
		}
	}
	var idxs []int
	for i, arg := range call.Args {
		if bodyArg(a.pass.TypesInfo, arg, tracked) {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil, false
	}
	fn := analysis.Callee(a.pass.TypesInfo, call)
	if fn == nil || visited[fn] || depth >= maxInline {
		return nil, false
	}
	fd := a.decls[fn]
	if fd == nil {
		return nil, false
	}
	visited[fn] = true
	next := paramObjs(a.pass.TypesInfo, fd, idxs)
	return a.readEvs(fd.Body, next, make(map[types.Object][]tok), visited, depth+1), true
}

// ---- shared helpers ----

// endianCall matches binary.LittleEndian.F(...) / binary.BigEndian.F(...)
// and reports the method name and which byte order it uses.
func endianCall(info *types.Info, call *ast.CallExpr) (name string, little, ok bool) {
	sel, k := call.Fun.(*ast.SelectorExpr)
	if !k {
		return "", false, false
	}
	inner, k := sel.X.(*ast.SelectorExpr)
	if !k {
		return "", false, false
	}
	pkgID, k := inner.X.(*ast.Ident)
	if !k {
		return "", false, false
	}
	pn, k := info.Uses[pkgID].(*types.PkgName)
	if !k || pn.Imported().Path() != "encoding/binary" {
		return "", false, false
	}
	switch inner.Sel.Name {
	case "LittleEndian":
		return sel.Sel.Name, true, true
	case "BigEndian":
		return sel.Sel.Name, false, true
	}
	return "", false, false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// bodyArg reports whether arg hands the request body (or a reslice of
// it) to a callee.
func bodyArg(info *types.Info, arg ast.Expr, tracked map[types.Object]bool) bool {
	switch arg := arg.(type) {
	case *ast.Ident:
		return trackedIdent(info, arg, tracked)
	case *ast.SliceExpr:
		return trackedIdent(info, arg.X, tracked)
	}
	return false
}

// trackedIdent reports whether e is an identifier for a tracked body
// variable.
func trackedIdent(info *types.Info, e ast.Expr, tracked map[types.Object]bool) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && tracked[obj]
}

// mentionsTracked reports whether any identifier inside e resolves to
// a tracked body variable.
func mentionsTracked(info *types.Info, e ast.Expr, tracked map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && tracked[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// paramObjs maps argument positions to the callee's parameter objects.
func paramObjs(info *types.Info, fd *ast.FuncDecl, idxs []int) map[types.Object]bool {
	var names []*ast.Ident
	for _, f := range fd.Type.Params.List {
		names = append(names, f.Names...)
	}
	out := make(map[types.Object]bool)
	for _, i := range idxs {
		if i < len(names) {
			if obj := info.Defs[names[i]]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}
