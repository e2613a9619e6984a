// Package harness drives the HyperModel benchmark: it executes every
// operation of §6 under the paper's measurement protocol and renders
// the result tables the evaluation reports.
//
// The protocol, §6 steps (a)–(e), for each operation:
//
//	(a) draw the operation's 50 random inputs;
//	(b) drop all caches, then run the operation 50 times — the cold run;
//	(c) commit;
//	(d) run the same 50 inputs again — the warm run;
//	(e) drop the caches so this sequence cannot warm the next one.
//
// Times are normalized to milliseconds per node returned/visited, with
// the editing operations reported per operation, exactly as the paper
// specifies.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"hypermodel/internal/hyper"
	"hypermodel/internal/stats"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Iterations per operation; the paper uses 50.
	Iterations int
	// Seed drives input drawing.
	Seed int64
	// Depth is the M-N-attribute closure depth (25 in the paper).
	Depth int
	// Ops filters which operations run (nil = all). Match on the ID
	// prefix, e.g. "O10" or "O5A".
	Ops []string
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	if c.Depth <= 0 {
		c.Depth = 25
	}
	return c
}

// OpResult is one row of the result matrix: an operation measured cold
// and warm.
type OpResult struct {
	ID    string // paper operation number, e.g. "O5A"
	Name  string // e.g. "groupLookup1N"
	PerOp bool   // normalize per operation (editing ops) not per node
	NA    bool   // not applicable on this backend (e.g. O2 without OIDs)
	Note  string
	Cold  stats.Series
	Warm  stats.Series
	// ColdReads/WarmReads are the disk (or server) reads issued during
	// each pass, when the backend reports cache statistics — the
	// protocol's cacheing evidence: a correct cold run reads, a correct
	// warm run does not.
	ColdReads uint64
	WarmReads uint64
}

// op describes one benchmark operation: how to draw inputs and how to
// run one iteration, returning the node count for normalization.
type op struct {
	id, name string
	perOp    bool
	// prepare draws all inputs up front so cold and warm runs use the
	// same ones. It may return a "not applicable" note.
	prepare func(h *runner) (na string, err error)
	run     func(h *runner, iter int) (nodes int, err error)
}

// runner carries per-operation state.
type runner struct {
	b     hyper.Backend
	lay   hyper.Layout
	cfg   Config
	rng   *rand.Rand
	ids   []hyper.NodeID // generic pre-drawn node inputs
	oids  []hyper.OID
	xs    []int32 // generic pre-drawn numeric inputs
	rects []hyper.Rect
}

// Run executes the configured operations on the backend and returns
// the result matrix.
func Run(b hyper.Backend, lay hyper.Layout, cfg Config) ([]OpResult, error) {
	if err := CheckOps(cfg.Ops); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var out []OpResult
	for _, o := range operations() {
		if !selected(cfg.Ops, o.id) {
			continue
		}
		res, err := runOne(b, lay, cfg, o)
		if err != nil {
			return nil, fmt.Errorf("harness: %s %s: %w", o.id, o.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// CheckOps rejects an operation filter naming an operation that does
// not exist: it would otherwise select nothing and report an empty
// matrix as success.
func CheckOps(filter []string) error {
	var valid []string
	for _, o := range operations() {
		valid = append(valid, o.id)
	}
	for _, f := range filter {
		if !slices.Contains(valid, f) {
			return fmt.Errorf("harness: unknown operation %q; valid operations are %s", f, strings.Join(valid, ", "))
		}
	}
	return nil
}

func selected(filter []string, id string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == id {
			return true
		}
	}
	return false
}

func runOne(b hyper.Backend, lay hyper.Layout, cfg Config, o op) (OpResult, error) {
	res := OpResult{ID: o.id, Name: o.name, PerOp: o.perOp}
	h := &runner{b: b, lay: lay, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(o.id))))}

	// (a) draw inputs.
	if o.prepare != nil {
		na, err := o.prepare(h)
		if err != nil {
			return res, err
		}
		if na != "" {
			res.NA = true
			res.Note = na
			return res, nil
		}
	}

	measure := func(series *stats.Series) error {
		for i := 0; i < cfg.Iterations; i++ {
			start := time.Now()
			nodes, err := o.run(h, i)
			if err != nil {
				return err
			}
			// Stable state between operations: commit participates in
			// the measured time (a no-op for read-only operations).
			if err := h.b.Commit(); err != nil {
				return err
			}
			series.Add(time.Since(start), nodes)
		}
		return nil
	}

	reads := func() uint64 {
		if sr, ok := b.(hyper.StatsReporter); ok {
			_, _, r := sr.CacheStats()
			return r
		}
		return 0
	}

	// (b) cold run from empty caches.
	if err := b.DropCaches(); err != nil {
		return res, err
	}
	r0 := reads()
	if err := measure(&res.Cold); err != nil {
		return res, err
	}
	// (c) commit.
	if err := b.Commit(); err != nil {
		return res, err
	}
	r1 := reads()
	// (d) warm run with the same inputs.
	if err := measure(&res.Warm); err != nil {
		return res, err
	}
	r2 := reads()
	res.ColdReads, res.WarmReads = r1-r0, r2-r1
	// (e) close out: leave no warmth for the next sequence.
	if err := b.DropCaches(); err != nil {
		return res, err
	}
	return res, nil
}

func hashID(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// drawIDs fills h.ids with n draws.
func (h *runner) drawIDs(n int, draw func(*rand.Rand) hyper.NodeID) {
	h.ids = make([]hyper.NodeID, n)
	for i := range h.ids {
		h.ids[i] = draw(h.rng)
	}
}

// operations returns the full §6 operation set.
func operations() []op {
	return []op{
		{
			id: "O1", name: "nameLookup",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNode)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				_, err := hyper.NameLookup(h.b, h.ids[i])
				return 1, err
			},
		},
		{
			id: "O2", name: "nameOIDLookup",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNode)
				h.oids = make([]hyper.OID, len(h.ids))
				for i, id := range h.ids {
					oid, err := h.b.OIDOf(id)
					if errors.Is(err, hyper.ErrNoOIDs) {
						return "no object identifiers in this mapping", nil
					}
					if err != nil {
						return "", err
					}
					h.oids[i] = oid
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				_, err := hyper.NameOIDLookup(h.b, h.oids[i])
				return 1, err
			},
		},
		{
			id: "O3", name: "rangeLookupHundred",
			prepare: func(h *runner) (string, error) {
				h.xs = make([]int32, h.cfg.Iterations)
				for i := range h.xs {
					h.xs[i] = int32(h.rng.Intn(hyper.HundredRange - hyper.HundredWindow + 1))
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.RangeLookupHundred(h.b, h.xs[i])
				return len(ids), err
			},
		},
		{
			id: "O4", name: "rangeLookupMillion",
			prepare: func(h *runner) (string, error) {
				h.xs = make([]int32, h.cfg.Iterations)
				for i := range h.xs {
					h.xs[i] = int32(h.rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.RangeLookupMillion(h.b, h.xs[i])
				return len(ids), err
			},
		},
		{
			id: "O5A", name: "groupLookup1N",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomInternal)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.GroupLookup1N(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O5B", name: "groupLookupMN",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomInternal)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.GroupLookupMN(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O6", name: "groupLookupMNAtt",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNode)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.GroupLookupMNAtt(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O7A", name: "refLookup1N",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNonRoot)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.RefLookup1N(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O7B", name: "refLookupMN",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNonRoot)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.RefLookupMN(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O8", name: "refLookupMNAtt",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomNode)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.RefLookupMNAtt(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O9", name: "seqScan",
			run: func(h *runner, i int) (int, error) {
				return hyper.SeqScan(h.b, 1, hyper.NodeID(h.lay.Total()))
			},
		},
		{
			id: "O10", name: "closure1N",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.Closure1N(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O11", name: "closure1NAttSum",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				_, visited, err := hyper.Closure1NAttSum(h.b, h.ids[i])
				return visited, err
			},
		},
		{
			id: "O12", name: "closure1NAttSet",
			prepare: func(h *runner) (string, error) {
				// Pairs on the same start node so the attribute is
				// restored after every even iteration (the paper's own
				// self-check).
				h.ids = make([]hyper.NodeID, h.cfg.Iterations)
				for i := 0; i < len(h.ids); i += 2 {
					start := h.lay.RandomClosureStart(h.rng)
					h.ids[i] = start
					if i+1 < len(h.ids) {
						h.ids[i+1] = start
					}
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				return hyper.Closure1NAttSet(h.b, h.ids[i])
			},
		},
		{
			id: "O13", name: "closure1NPred",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				h.xs = make([]int32, h.cfg.Iterations)
				for i := range h.xs {
					h.xs[i] = int32(h.rng.Intn(hyper.MillionRange - hyper.MillionWindow + 1))
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.Closure1NPred(h.b, h.ids[i], h.xs[i])
				return len(ids), err
			},
		},
		{
			id: "O14", name: "closureMN",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.ClosureMN(h.b, h.ids[i])
				return len(ids), err
			},
		},
		{
			id: "O15", name: "closureMNAtt",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				ids, err := hyper.ClosureMNAtt(h.b, h.ids[i], h.cfg.Depth)
				return len(ids), err
			},
		},
		{
			id: "O16", name: "textNodeEdit", perOp: true,
			prepare: func(h *runner) (string, error) {
				// Forward/backward pairs on the same node.
				h.ids = make([]hyper.NodeID, h.cfg.Iterations)
				for i := 0; i < len(h.ids); i += 2 {
					id := h.lay.RandomTextNode(h.rng)
					h.ids[i] = id
					if i+1 < len(h.ids) {
						h.ids[i+1] = id
					}
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				return 1, hyper.TextNodeEdit(h.b, h.ids[i], i%2 == 0)
			},
		},
		{
			id: "O17", name: "formNodeEdit", perOp: true,
			prepare: func(h *runner) (string, error) {
				// The same form node for all fifty repetitions (§6.7).
				id, ok := h.lay.RandomFormNode(h.rng)
				if !ok {
					return "database too small to hold form nodes", nil
				}
				h.ids = []hyper.NodeID{id}
				h.rects = make([]hyper.Rect, h.cfg.Iterations)
				for i := range h.rects {
					w := 25 + h.rng.Intn(26)
					hh := 25 + h.rng.Intn(26)
					h.rects[i] = hyper.Rect{
						X: h.rng.Intn(hyper.BitmapMinSide - 25),
						Y: h.rng.Intn(hyper.BitmapMinSide - 25),
						W: w, H: hh,
					}
				}
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				return 1, hyper.FormNodeEdit(h.b, h.ids[0], h.rects[i])
			},
		},
		{
			id: "O18", name: "closureMNAttLinkSum",
			prepare: func(h *runner) (string, error) {
				h.drawIDs(h.cfg.Iterations, h.lay.RandomClosureStart)
				return "", nil
			},
			run: func(h *runner, i int) (int, error) {
				pairs, err := hyper.ClosureMNAttLinkSum(h.b, h.ids[i], h.cfg.Depth)
				return len(pairs), err
			},
		},
	}
}
