package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/intern"
)

// internedOn selects the interned data plane for embedding enumeration. On
// by default; SetInterned(false) falls back to the string-indexed
// implementation (kept as the differential reference). Both paths enumerate
// the exact same embedding sequence and charge the exact same governor
// steps, so flipping the knob never changes observable behavior — only the
// representation the inner loop runs over.
var internedOn atomic.Bool

func init() { internedOn.Store(true) }

// SetInterned selects (true, the default) or deselects the interned data
// plane for this package's enumeration hot paths (EachEmbedding, Eval and
// their Ctx forms). Purification runs on fact masks either way.
func SetInterned(on bool) { internedOn.Store(on) }

// InternedEnabled reports whether the interned data plane is selected.
func InternedEnabled() bool { return internedOn.Load() }

// Argument kinds after compile-time binding analysis. The atom order is
// fixed before compilation, so whether a variable is already bound when an
// atom is reached is statically known: each argument lowers to a constant
// id compare, a slot compare, or a slot write — no runtime bound-tracking,
// no map, no unbinding (a slot is always rewritten before any read).
const (
	argConst uint8 = iota // compare against a fixed id
	argBound              // compare against env[slot]
	argBind               // write env[slot] (first occurrence)
)

type iArg struct {
	kind uint8
	id   uint32 // argConst: the constant's id (intern.None when absent from d)
	slot uint16 // argBound/argBind: the variable's slot
}

// iAtom is one compiled level of the embedding search.
type iAtom struct {
	rel  *db.IRel // nil when the relation is absent or signature-mismatched
	args []iArg
	// keyReady: every key position is determined (const or bound) at entry,
	// so candidates narrow to one block probe.
	keyReady bool
	// det lists the determined positions at entry, for posting selection.
	det []int
	// mask, when non-nil, holds the selected facts of rel (a Mask's words):
	// unselected candidates are rejected before their node is entered.
	mask []uint64
	// ri is the atom's relation index in the compiling Mask (-1 without).
	ri int
}

// iProg is a query compiled against one interned view for one atom order.
// Programs are pooled: the compile buffers survive between enumerations,
// so a warm compile allocates nothing.
type iProg struct {
	atoms  []iAtom
	vars   []string // slot → variable name; pre-bound variables first
	maxKey int
	in     *db.Interned

	q      cq.Query
	npre   int
	ri     []int // per query atom: relation index in the Mask, -1 without
	size   []int // per query atom: relation cardinality, for the atom order
	order  []int
	bound  []string
	bindAt []int // per slot: the level binding it, -1 while unbound
	args   []iArg
	dets   []int
}

var progPool = sync.Pool{New: func() any { return new(iProg) }}

// getProg starts compiling q against the view: slots 0..len(pre)-1 hold
// the pre-bound variables, which the caller writes into the environment
// before the search. The caller fills p.size (and p.ri), then lowers.
func getProg(q cq.Query, pre []string, in *db.Interned) *iProg {
	p := progPool.Get().(*iProg)
	p.q, p.in, p.npre, p.maxKey = q, in, len(pre), 0
	p.vars = append(p.vars[:0], pre...)
	n := len(q.Atoms)
	p.ri = growInts(p.ri, n)
	p.size = growInts(p.size, n)
	return p
}

func putProg(p *iProg) {
	p.q, p.in = cq.Query{}, nil
	for i := range p.atoms {
		p.atoms[i] = iAtom{}
	}
	progPool.Put(p)
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// compileDB compiles q against d's view, unmasked, ordered by d's
// relation sizes.
func compileDB(q cq.Query, d *db.DB) *iProg {
	p := getProg(q, nil, d.Interned())
	for i, a := range q.Atoms {
		p.ri[i], p.size[i] = -1, d.RelationSize(a.Rel)
	}
	p.lower(nil)
	return p
}

// atomOrder is orderAtoms over precomputed relation sizes, with the
// variables of pre counting as constants: start from the atom with the
// fewest matching facts, then greedily prefer atoms with the most
// variables already bound, ties to the smaller relation, then to the
// earlier atom. order and bound are reused buffers.
func atomOrder(order []int, bound []string, q cq.Query, pre []string, size []int) ([]int, []string) {
	order, bound = order[:0], bound[:0]
	n := len(q.Atoms)
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, -1
		for i, a := range q.Atoms {
			if slices.Contains(order, i) {
				continue
			}
			b := 0
			for k, t := range a.Args {
				if t.IsVar() && !repeatsEarlier(a.Args[:k], t.Value) && slices.Contains(bound, t.Value) {
					b++
				}
			}
			if best == -1 || b > bestBound || (b == bestBound && size[i] < bestSize) {
				best, bestBound, bestSize = i, b, size[i]
			}
		}
		order = append(order, best)
		for _, t := range q.Atoms[best].Args {
			if t.IsVar() && !slices.Contains(pre, t.Value) && !slices.Contains(bound, t.Value) {
				bound = append(bound, t.Value)
			}
		}
	}
	return order, bound
}

// repeatsEarlier reports whether variable v occurs among args.
func repeatsEarlier(args []cq.Term, v string) bool {
	for _, t := range args {
		if t.IsVar() && t.Value == v {
			return true
		}
	}
	return false
}

// slotOf returns the slot of variable v, -1 when it has none yet.
func (p *iProg) slotOf(v string) int {
	for s, name := range p.vars {
		if name == v {
			return s
		}
	}
	return -1
}

// lower fixes the atom order from p.size and lowers every atom against
// the view. Whether a variable is already bound when an atom is reached is
// statically known once the order is fixed: each argument lowers to a
// constant id compare, a slot compare, or a slot write — no runtime
// bound-tracking, no map, no unbinding (a slot is always rewritten before
// any read). Constants absent from the view lower to intern.None, which
// matches nothing: the search still walks the same nodes as over a
// database without them, it just finds no candidates. m, when non-nil,
// supplies each atom's selection (p.ri indexes it).
func (p *iProg) lower(m *Mask) {
	q := p.q
	p.order, p.bound = atomOrder(p.order, p.bound, q, p.vars[:p.npre], p.size)
	nargs := 0
	for _, a := range q.Atoms {
		nargs += len(a.Args)
	}
	p.args = growArgs(p.args, nargs)
	p.dets = growInts(p.dets, nargs)[:0]
	if cap(p.atoms) < len(q.Atoms) {
		p.atoms = make([]iAtom, len(q.Atoms))
	}
	p.atoms = p.atoms[:len(q.Atoms)]
	p.bindAt = p.bindAt[:0]
	for range p.vars {
		p.bindAt = append(p.bindAt, -1)
	}
	args := p.args
	for li, ai := range p.order {
		a := q.Atoms[ai]
		ia := iAtom{args: args[:len(a.Args):len(a.Args)], ri: p.ri[ai]}
		args = args[len(a.Args):]
		var r *db.IRel
		if m != nil {
			if ia.ri >= 0 {
				r = m.rels[ia.ri]
				ia.mask = m.relWords(ia.ri)
			}
		} else {
			r = p.in.Rel(a.Rel)
		}
		if r != nil && r.Arity == len(a.Args) && r.KeyLen == a.KeyLen {
			ia.rel = r
		}
		// A slot bound at an earlier level (or pre-bound) is determined at
		// entry; one first bound within this atom (R(x | x)) compares fine
		// during verification but must not drive candidate selection.
		detStart := len(p.dets)
		ia.keyReady = true
		for pos, t := range a.Args {
			switch {
			case t.IsConst:
				id, ok := p.in.Syms.Lookup(t.Value)
				if !ok {
					id = intern.None
				}
				ia.args[pos] = iArg{kind: argConst, id: id}
				p.dets = append(p.dets, pos)
			default:
				s := p.slotOf(t.Value)
				switch {
				case s >= 0 && s < p.npre:
					ia.args[pos] = iArg{kind: argBound, slot: uint16(s)}
					p.dets = append(p.dets, pos)
				case s >= 0 && p.bindAt[s] >= 0:
					ia.args[pos] = iArg{kind: argBound, slot: uint16(s)}
					if p.bindAt[s] < li {
						p.dets = append(p.dets, pos)
					} else if pos < a.KeyLen {
						ia.keyReady = false
					}
				default:
					if s < 0 {
						s = len(p.vars)
						p.vars = append(p.vars, t.Value)
						p.bindAt = append(p.bindAt, -1)
					}
					p.bindAt[s] = li
					ia.args[pos] = iArg{kind: argBind, slot: uint16(s)}
					if pos < a.KeyLen {
						ia.keyReady = false
					}
				}
			}
		}
		ia.det = p.dets[detStart:len(p.dets):len(p.dets)]
		if a.KeyLen > p.maxKey {
			p.maxKey = a.KeyLen
		}
		p.atoms[li] = ia
	}
}

func growArgs(s []iArg, n int) []iArg {
	if cap(s) < n {
		return make([]iArg, n)
	}
	return s[:n]
}

// run enumerates the embeddings with the pre-bound slots set to pre,
// calling leaf at every one until it returns false.
func (p *iProg) run(g *govern.Governor, pre []uint32, leaf func(*iScratch) (bool, error)) (bool, error) {
	sc := getScratch(p)
	defer putScratch(sc)
	copy(sc.env, pre)
	return p.level(g, sc, 0, leaf)
}

// exists reports whether some embedding exists, materializing nothing.
func (p *iProg) exists(g *govern.Governor, pre []uint32) (bool, error) {
	found := false
	_, err := p.run(g, pre, func(*iScratch) (bool, error) {
		found = true
		return false, nil
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// iScratch holds every mutable slice one enumeration needs, pooled so a
// warm enumeration allocates nothing. env is the valuation (slot → id);
// facts records the matched fact index per level (consumed by purification
// marking); key is the block-probe buffer; bufs holds one intersection
// output per level (stable while deeper levels recurse).
type iScratch struct {
	env   []uint32
	facts []uint32
	key   []uint32
	bufs  [][]uint32
}

var iScratchPool = sync.Pool{New: func() any { return new(iScratch) }}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func getScratch(p *iProg) *iScratch {
	sc := iScratchPool.Get().(*iScratch)
	sc.env = growU32(sc.env, len(p.vars))
	sc.facts = growU32(sc.facts, len(p.atoms))
	sc.key = growU32(sc.key, p.maxKey)
	if cap(sc.bufs) < len(p.atoms) {
		sc.bufs = make([][]uint32, len(p.atoms))
	} else {
		sc.bufs = sc.bufs[:len(p.atoms)]
	}
	return sc
}

func putScratch(sc *iScratch) { iScratchPool.Put(sc) }

// intersectInto writes the intersection of two ascending lists into
// dst[:0], returning the filled slice. Ascending in, ascending out.
func intersectInto(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// argVal resolves a determined argument (const or bound) to its id.
func argVal(ag *iArg, env []uint32) uint32 {
	if ag.kind == argConst {
		return ag.id
	}
	return env[ag.slot]
}

// level runs one level of the embedding search. A governor step is charged
// per node entry — exactly where the string path charges — so budget and
// cancellation behavior is bit-identical across the knob. Candidate
// narrowing (block probe, posting intersection) only skips facts the
// verifier would reject; every index yields ascending fact indices, which
// is insertion order, so the embedding sequence is also identical.
func (p *iProg) level(g *govern.Governor, sc *iScratch, li int, leaf func(*iScratch) (bool, error)) (bool, error) {
	if g != nil {
		if err := g.Step(); err != nil {
			return false, err
		}
	}
	if li == len(p.atoms) {
		return leaf(sc)
	}
	ia := &p.atoms[li]
	r := ia.rel
	if r == nil {
		return true, nil
	}
	var cands []uint32
	switch {
	case ia.keyReady:
		key := sc.key[:r.KeyLen]
		for i := 0; i < r.KeyLen; i++ {
			key[i] = argVal(&ia.args[i], sc.env)
		}
		span, ok := r.BlockOf(key)
		if !ok {
			return true, nil
		}
		cands = span
	case len(ia.det) == 0:
		// Full scan, without materializing an index list.
		n := uint32(r.NumFacts())
		for fi := uint32(0); fi < n; fi++ {
			cont, err := p.tryFact(g, sc, li, fi, leaf)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	case len(ia.det) == 1:
		pos := ia.det[0]
		cands = r.Posting(pos, argVal(&ia.args[pos], sc.env))
	default:
		// Sorted-posting intersection: the two shortest determined postings
		// bound the candidate set; the per-fact verifier covers the rest.
		var p1, p2 []uint32
		first := true
		for _, pos := range ia.det {
			l := r.Posting(pos, argVal(&ia.args[pos], sc.env))
			if first {
				p1, first = l, false
			} else if len(l) < len(p1) {
				p1, p2 = l, p1
			} else if p2 == nil || len(l) < len(p2) {
				p2 = l
			}
		}
		if len(p1) == 0 {
			return true, nil
		}
		cands = intersectInto(sc.bufs[li], p1, p2)
		sc.bufs[li] = cands[:0]
	}
	for _, fi := range cands {
		cont, err := p.tryFact(g, sc, li, fi, leaf)
		if err != nil || !cont {
			return false, err
		}
	}
	return true, nil
}

// tryFact verifies candidate fi against level li's compiled arguments,
// binding first-occurrence variables, and recurses on a match. Bind writes
// need no undo: a slot is rewritten by its binding level before any deeper
// read, and shallower levels never read it.
func (p *iProg) tryFact(g *govern.Governor, sc *iScratch, li int, fi uint32, leaf func(*iScratch) (bool, error)) (bool, error) {
	ia := &p.atoms[li]
	if ia.mask != nil && ia.mask[fi>>6]&(1<<(fi&63)) == 0 {
		return true, nil
	}
	for pos := range ia.args {
		ag := &ia.args[pos]
		v := ia.rel.Cols[pos][fi]
		switch ag.kind {
		case argConst:
			if v != ag.id {
				return true, nil
			}
		case argBound:
			if v != sc.env[ag.slot] {
				return true, nil
			}
		default:
			sc.env[ag.slot] = v
		}
	}
	sc.facts[li] = fi
	return p.level(g, sc, li+1, leaf)
}

// valuation materializes the leaf environment as a cq.Valuation (owned by
// the caller, as the EachEmbedding contract requires).
func (p *iProg) valuation(sc *iScratch) cq.Valuation {
	v := make(cq.Valuation, len(p.vars))
	for s, name := range p.vars {
		v[name] = p.in.Syms.MustString(sc.env[s])
	}
	return v
}

// eachEmbeddingInterned is the interned implementation behind
// EachEmbedding/EachEmbeddingCtx. g may be nil (no governor accounting,
// matching the ctx-less string path).
func eachEmbeddingInterned(g *govern.Governor, q cq.Query, d *db.DB, yield func(cq.Valuation) bool) (bool, error) {
	p := compileDB(q, d)
	defer putProg(p)
	return p.run(g, nil, func(sc *iScratch) (bool, error) {
		return yield(p.valuation(sc)), nil
	})
}

// evalInterned decides d ⊨ q on the interned plane without materializing
// any valuation.
func evalInterned(g *govern.Governor, q cq.Query, d *db.DB) (bool, error) {
	p := compileDB(q, d)
	defer putProg(p)
	return p.exists(g, nil)
}
