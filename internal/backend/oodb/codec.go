package oodb

import (
	"encoding/binary"
	"fmt"

	"hypermodel/internal/hyper"
)

// object is the decoded form of one persistent node object. Like a
// real OODB object it holds its attributes and its relationship
// collections directly; each entry carries both the target's OID (for
// physical traversal) and its uniqueId (the reference currency of the
// Backend interface), so a group lookup activates only one object.
type object struct {
	node      hyper.Node
	parentOID uint64
	parentID  hyper.NodeID
	children  []ref
	parts     []ref
	partOf    []ref
	refsTo    []edgeRef
	refsFrom  []edgeRef
	text      []byte
	form      []byte
}

// ref points at another object.
type ref struct {
	oid uint64
	id  hyper.NodeID
}

// edgeRef is one stored refTo/refFrom association endpoint.
type edgeRef struct {
	oid     uint64 // the other endpoint's OID
	id      hyper.NodeID
	offFrom int32
	offTo   int32
}

const objVersion = 1

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeObject serializes an object.
func encodeObject(o *object) []byte {
	size := 1 + 1 + 8 + 4*4 + 8 + 8 +
		2 + 16*len(o.children) +
		2 + 16*len(o.parts) +
		2 + 16*len(o.partOf) +
		2 + 24*len(o.refsTo) +
		2 + 24*len(o.refsFrom) +
		4 + len(o.text) +
		4 + len(o.form)
	b := make([]byte, 0, size)
	b = append(b, objVersion, byte(o.node.Kind))
	b = appendU64(b, uint64(o.node.ID))
	b = appendU32(b, uint32(o.node.Ten))
	b = appendU32(b, uint32(o.node.Hundred))
	b = appendU32(b, uint32(o.node.Thousand))
	b = appendU32(b, uint32(o.node.Million))
	b = appendU64(b, o.parentOID)
	b = appendU64(b, uint64(o.parentID))
	appendRefs := func(rs []ref) {
		b = appendU16(b, uint16(len(rs)))
		for _, r := range rs {
			b = appendU64(b, r.oid)
			b = appendU64(b, uint64(r.id))
		}
	}
	appendRefs(o.children)
	appendRefs(o.parts)
	appendRefs(o.partOf)
	appendEdges := func(es []edgeRef) {
		b = appendU16(b, uint16(len(es)))
		for _, e := range es {
			b = appendU64(b, e.oid)
			b = appendU64(b, uint64(e.id))
			b = appendU32(b, uint32(e.offFrom))
			b = appendU32(b, uint32(e.offTo))
		}
	}
	appendEdges(o.refsTo)
	appendEdges(o.refsFrom)
	b = appendU32(b, uint32(len(o.text)))
	b = append(b, o.text...)
	b = appendU32(b, uint32(len(o.form)))
	b = append(b, o.form...)
	return b
}

// Record layout, as written by encodeObject: a fixed header, five
// counted relationship sections, then length-prefixed text and bitmap.
const (
	offKind      = 1
	offID        = 2
	offTen       = 10
	offHundred   = 14
	offThousand  = 18
	offMillion   = 22
	offParentOID = 26
	offParentID  = 34
	headerSize   = 42

	refSize  = 16 // oid u64, id u64
	edgeSize = 24 // oid u64, id u64, offFrom i32, offTo i32
)

// relation names one of an object's five relationship sections, in
// record order.
type relation int

const (
	relChildren relation = iota
	relParts
	relPartOf
	relRefsTo
	relRefsFrom
	numRelations
)

// entrySize is the stored size of one entry; every entry starts with
// the target's OID and uniqueId.
func (r relation) entrySize() int {
	if r >= relRefsTo {
		return edgeSize
	}
	return refSize
}

// objView is a validated record read in place: parseObject checked
// every count and length against the record once, so the accessors
// index data without further checks and decode only the section they
// return. A view aliases the bytes it was parsed from and lives no
// longer than they do.
type objView struct {
	data []byte
	off  [numRelations]uint32 // first entry of each section
	n    [numRelations]uint16 // entries in each section
	text []byte
	form []byte
}

// parseObject is the one parser of encodeObject's format: a single
// bounds-checked pass that accepts exactly the canonical encoding.
func parseObject(data []byte) (objView, error) {
	var v objView
	if len(data) < headerSize {
		return v, fmt.Errorf("oodb: truncated object (%d-byte header)", len(data))
	}
	if data[0] != objVersion {
		return v, fmt.Errorf("oodb: unsupported object version %d", data[0])
	}
	pos := headerSize
	for r := relation(0); r < numRelations; r++ {
		if len(data)-pos < 2 {
			return v, fmt.Errorf("oodb: truncated object (section %d count at %d)", r, pos)
		}
		n := binary.LittleEndian.Uint16(data[pos:])
		pos += 2
		size := int(n) * r.entrySize()
		if len(data)-pos < size {
			return v, fmt.Errorf("oodb: truncated object (section %d: %d entries at %d of %d)", r, n, pos, len(data))
		}
		v.off[r], v.n[r] = uint32(pos), n
		pos += size
	}
	for _, blob := range [...]*[]byte{&v.text, &v.form} {
		if len(data)-pos < 4 {
			return v, fmt.Errorf("oodb: truncated object (content length at %d)", pos)
		}
		n := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		if uint64(len(data)-pos) < uint64(n) {
			return v, fmt.Errorf("oodb: truncated object (%d content bytes at %d of %d)", n, pos, len(data))
		}
		*blob = data[pos : pos+int(n)]
		pos += int(n)
	}
	if pos != len(data) {
		return v, fmt.Errorf("oodb: %d trailing bytes in object", len(data)-pos)
	}
	v.data = data
	return v, nil
}

func (v objView) i32(off int) int32 { return int32(binary.LittleEndian.Uint32(v.data[off:])) }

func (v objView) kind() hyper.Kind { return hyper.Kind(v.data[offKind]) }
func (v objView) ten() int32       { return v.i32(offTen) }
func (v objView) hundred() int32   { return v.i32(offHundred) }

func (v objView) node() hyper.Node {
	return hyper.Node{
		ID:       hyper.NodeID(binary.LittleEndian.Uint64(v.data[offID:])),
		Kind:     v.kind(),
		Ten:      v.ten(),
		Hundred:  v.hundred(),
		Thousand: v.i32(offThousand),
		Million:  v.i32(offMillion),
	}
}

// parent returns the 1-N parent; a zero OID means there is none.
func (v objView) parent() (oid uint64, id hyper.NodeID) {
	return binary.LittleEndian.Uint64(v.data[offParentOID:]),
		hyper.NodeID(binary.LittleEndian.Uint64(v.data[offParentID:]))
}

// entry returns the stored bytes of the i'th entry of section r.
func (v objView) entry(r relation, i int) []byte {
	return v.data[int(v.off[r])+i*r.entrySize():]
}

// target returns the OID and uniqueId the i'th entry of r points at.
func (v objView) target(r relation, i int) (oid uint64, id hyper.NodeID) {
	e := v.entry(r, i)
	return binary.LittleEndian.Uint64(e), hyper.NodeID(binary.LittleEndian.Uint64(e[8:]))
}

// ids decodes the uniqueIds section r points at.
func (v objView) ids(r relation) []hyper.NodeID {
	out := make([]hyper.NodeID, v.n[r])
	for i := range out {
		_, out[i] = v.target(r, i)
	}
	return out
}

// edges decodes an association section (relRefsTo or relRefsFrom) of
// the node self into its edges.
func (v objView) edges(r relation, self hyper.NodeID) []hyper.Edge {
	out := make([]hyper.Edge, v.n[r])
	for i := range out {
		e := v.edgeRef(r, i)
		out[i] = hyper.Edge{From: self, To: e.id, OffsetFrom: e.offFrom, OffsetTo: e.offTo}
		if r == relRefsFrom {
			out[i].From, out[i].To = e.id, self
		}
	}
	return out
}

func (v objView) edgeRef(r relation, i int) edgeRef {
	e := v.entry(r, i)
	oid, id := v.target(r, i)
	return edgeRef{oid, id, int32(binary.LittleEndian.Uint32(e[16:])), int32(binary.LittleEndian.Uint32(e[20:]))}
}

// object materialises the whole record for the mutating paths, which
// change one field and re-encode. Nothing in it aliases the view.
func (v objView) object() *object {
	o := &object{node: v.node()}
	o.parentOID, o.parentID = v.parent()
	refs := func(r relation) []ref {
		if v.n[r] == 0 {
			return nil
		}
		rs := make([]ref, v.n[r])
		for i := range rs {
			rs[i].oid, rs[i].id = v.target(r, i)
		}
		return rs
	}
	o.children, o.parts, o.partOf = refs(relChildren), refs(relParts), refs(relPartOf)
	edgeRefs := func(r relation) []edgeRef {
		if v.n[r] == 0 {
			return nil
		}
		es := make([]edgeRef, v.n[r])
		for i := range es {
			es[i] = v.edgeRef(r, i)
		}
		return es
	}
	o.refsTo, o.refsFrom = edgeRefs(relRefsTo), edgeRefs(relRefsFrom)
	o.text = append([]byte(nil), v.text...)
	o.form = append([]byte(nil), v.form...)
	return o
}
