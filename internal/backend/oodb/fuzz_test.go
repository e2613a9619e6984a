package oodb

import (
	"bytes"
	"testing"

	"hypermodel/internal/hyper"
)

// FuzzDecodeObject feeds arbitrary bytes to the object parser. It must
// reject or accept without panicking; for anything it accepts, the
// in-place accessors the read paths use must agree field for field with
// the object the mutating paths materialise, the object must re-encode
// to the same bytes (canonical encoding), and every strict prefix of
// the record must be rejected.
func FuzzDecodeObject(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeObject(&object{node: hyper.Node{ID: 1}}))
	f.Add(encodeObject(&object{
		node:     hyper.Node{ID: 7, Kind: hyper.KindText, Hundred: 50},
		children: []ref{{1, 2}},
		refsTo:   []edgeRef{{3, 4, 5, 6}},
		text:     []byte("version1"),
	}))
	f.Add(encodeObject(&object{
		node:      hyper.Node{ID: 9, Kind: hyper.KindForm, Ten: 1, Thousand: 2, Million: 3},
		parentOID: 4, parentID: 5,
		parts:    []ref{{6, 7}, {8, 9}},
		partOf:   []ref{{10, 11}},
		refsFrom: []edgeRef{{12, 13, 14, 15}},
		form:     []byte{1, 0, 1, 0, 0xff},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := parseObject(data)
		if err != nil {
			return
		}
		o := v.object()
		if re := encodeObject(o); !bytes.Equal(re, data) {
			t.Fatalf("accepted object is not canonical: %x -> %x", data, re)
		}
		if v.node() != o.node || v.kind() != o.node.Kind || v.ten() != o.node.Ten || v.hundred() != o.node.Hundred {
			t.Fatalf("header: view %+v, object %+v", v.node(), o.node)
		}
		if oid, id := v.parent(); oid != o.parentOID || id != o.parentID {
			t.Fatalf("parent: view %d/%d, object %d/%d", oid, id, o.parentOID, o.parentID)
		}
		for r, refs := range map[relation][]ref{relChildren: o.children, relParts: o.parts, relPartOf: o.partOf} {
			ids := v.ids(r)
			if len(ids) != len(refs) {
				t.Fatalf("section %d: view has %d entries, object %d", r, len(ids), len(refs))
			}
			for i, want := range refs {
				if oid, id := v.target(r, i); ids[i] != want.id || id != want.id || oid != want.oid {
					t.Fatalf("section %d entry %d: view %d/%d (ids %d), object %+v", r, i, oid, id, ids[i], want)
				}
			}
		}
		const self = hyper.NodeID(1 << 40)
		for r, refs := range map[relation][]edgeRef{relRefsTo: o.refsTo, relRefsFrom: o.refsFrom} {
			edges := v.edges(r, self)
			if len(edges) != len(refs) {
				t.Fatalf("section %d: view has %d edges, object %d", r, len(edges), len(refs))
			}
			for i, e := range refs {
				want := hyper.Edge{From: self, To: e.id, OffsetFrom: e.offFrom, OffsetTo: e.offTo}
				if r == relRefsFrom {
					want.From, want.To = e.id, self
				}
				if oid, _ := v.target(r, i); edges[i] != want || oid != e.oid {
					t.Fatalf("section %d edge %d: view %+v (oid %d), object %+v", r, i, edges[i], oid, e)
				}
			}
		}
		if !bytes.Equal(v.text, o.text) || !bytes.Equal(v.form, o.form) {
			t.Fatalf("content: view %q/%x, object %q/%x", v.text, v.form, o.text, o.form)
		}
		for n := range data {
			if _, err := parseObject(data[:n]); err == nil {
				t.Fatalf("strict prefix of %d of %d bytes accepted", n, len(data))
			}
		}
	})
}
