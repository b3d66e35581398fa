package engine

import (
	"math/bits"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// Mask selects a subset of the facts of one interned view: one bitset per
// relation of a fixed name list, over the relation's fact indexes, plus a
// count of the selected facts of every relation outside the list. The
// polynomial methods purify (Lemma 1) by clearing bits instead of building
// a database per round, so a whole solve runs over the request's one view.
//
// A mask is not safe for concurrent mutation; concurrent readers are fine.
type Mask struct {
	in    *db.Interned
	names []string
	rels  []*db.IRel // nil when the relation is absent from the view
	off   []int      // rels[r]'s bits are words[off[r]:off[r+1]]
	live  []int      // selected facts per relation
	words []uint64
	other int // selected facts of relations outside names
}

// NewMask selects every fact of d. names lists the relations the mask
// tracks one by one (distinct; relation index r is names[r]); the facts of
// all other relations are only counted, and any purification drops them.
func NewMask(d *db.DB, names []string) *Mask {
	in := d.Interned()
	n := len(names)
	ints := make([]int, 2*n+1)
	m := &Mask{in: in, names: names, rels: make([]*db.IRel, n), off: ints[:n+1], live: ints[n+1:]}
	total := 0
	for r, name := range names {
		nf := 0
		if ir := in.Rel(name); ir != nil {
			m.rels[r], nf = ir, ir.NumFacts()
		}
		m.live[r] = nf
		m.off[r+1] = m.off[r] + (nf+63)/64
		total += nf
	}
	m.words = make([]uint64, m.off[n])
	for r, nf := range m.live {
		w := m.words[m.off[r]:m.off[r+1]]
		for i := range w {
			w[i] = ^uint64(0)
		}
		if tail := nf & 63; tail != 0 {
			w[len(w)-1] = 1<<tail - 1
		}
	}
	m.other = d.Len() - total
	return m
}

// View returns the interned view the mask selects from.
func (m *Mask) View() *db.Interned { return m.in }

// Rel returns the columnar storage of relation r, nil when the relation is
// absent from the view.
func (m *Mask) Rel(r int) *db.IRel { return m.rels[r] }

// Len returns the number of selected facts, inside and outside the tracked
// relations.
func (m *Mask) Len() int {
	n := m.other
	for _, l := range m.live {
		n += l
	}
	return n
}

// Has reports whether fact fi of relation r is selected.
func (m *Mask) Has(r int, fi uint32) bool {
	return m.words[m.off[r]+int(fi>>6)]&(1<<(fi&63)) != 0
}

// Add selects fact fi of relation r.
func (m *Mask) Add(r int, fi uint32) {
	w := &m.words[m.off[r]+int(fi>>6)]
	if bit := uint64(1) << (fi & 63); *w&bit == 0 {
		*w |= bit
		m.live[r]++
	}
}

// DropRel deselects every fact of relation r.
func (m *Mask) DropRel(r int) {
	clear(m.relWords(r))
	m.live[r] = 0
}

// DropOthers deselects every fact outside the tracked relations.
func (m *Mask) DropOthers() { m.other = 0 }

// Clear deselects every fact.
func (m *Mask) Clear() {
	clear(m.words)
	clear(m.live)
	m.other = 0
}

// CopyFrom makes m select exactly what src selects. Both masks must come
// from the same view and name list (a Clone, say).
func (m *Mask) CopyFrom(src *Mask) {
	copy(m.words, src.words)
	copy(m.live, src.live)
	m.other = src.other
}

// Clone returns an independent copy of m.
func (m *Mask) Clone() *Mask {
	c := *m
	ints := make([]int, len(m.off)+len(m.live))
	c.off, c.live = ints[:len(m.off)], ints[len(m.off):]
	copy(c.off, m.off)
	c.words = make([]uint64, len(m.words))
	c.CopyFrom(m)
	return &c
}

func (m *Mask) relWords(r int) []uint64 { return m.words[m.off[r]:m.off[r+1]] }

// relIndex returns the index of the named relation, -1 when untracked.
func (m *Mask) relIndex(name string) int {
	for r, n := range m.names {
		if n == name {
			return r
		}
	}
	return -1
}

// Bound pre-binds variables for a masked enumeration: variable Vars[i]
// takes the id IDs[i] of the mask's view, exactly as if the query had the
// constant with that id in its place. Recursive methods (Theorem 3)
// substitute the values of eliminated atoms this way instead of building
// a substituted query.
type Bound struct {
	Vars []string
	IDs  []uint32
}

// maskScratch is one purification's mark space: used mirrors the mask's
// words, blocks is a per-relation block bitset cleared after each use.
type maskScratch struct {
	used   []uint64
	blocks []uint64
}

var maskScratchPool = sync.Pool{New: func() any { return new(maskScratch) }}

// PurifyMask runs Lemma 1 over the facts m selects, in place: each round
// enumerates the embeddings of q (under the pre-bound variables of b) over
// the selected facts only, marks the facts they use, and deselects every
// block holding an unused selected fact; selected facts outside q's
// relations are unused, so the first round drops them. It stops after a
// round that drops nothing. Every round visits, in the same order, the
// search nodes an enumeration over the database of the selected facts
// visits, so it charges g (nil: no accounting) the same steps as
// purifying that database round by round.
func PurifyMask(g *govern.Governor, q cq.Query, b Bound, m *Mask) error {
	sc := maskScratchPool.Get().(*maskScratch)
	defer maskScratchPool.Put(sc)
	if cap(sc.used) < len(m.words) {
		sc.used = make([]uint64, len(m.words))
	}
	used := sc.used[:len(m.words)]
	for {
		if g != nil {
			// The governed path counts one enumeration per round.
			embeddingEnumerations.Inc()
		}
		clear(used)
		p := compileMask(q, b, m)
		_, err := p.run(g, b.IDs, func(es *iScratch) (bool, error) {
			for li := range p.atoms {
				fi := es.facts[li]
				used[m.off[p.atoms[li].ri]+int(fi>>6)] |= 1 << (fi & 63)
			}
			return true, nil
		})
		putProg(p)
		if err != nil {
			return err
		}
		dropped := m.other > 0
		m.other = 0
		for r, ir := range m.rels {
			if m.live[r] == 0 {
				continue
			}
			if m.dropUnusedBlocks(r, ir, used[m.off[r]:m.off[r+1]], sc) {
				dropped = true
			}
		}
		if !dropped {
			return nil
		}
	}
}

// dropUnusedBlocks deselects every block of relation r holding a selected
// fact outside used, reporting whether any was.
func (m *Mask) dropUnusedBlocks(r int, ir *db.IRel, used []uint64, sc *maskScratch) bool {
	w := m.relWords(r)
	nb := (ir.NumBlocks() + 63) / 64
	if cap(sc.blocks) < nb {
		sc.blocks = make([]uint64, nb)
	}
	blocks := sc.blocks[:nb]
	found := false
	for i, word := range w {
		for x := word &^ used[i]; x != 0; x &= x - 1 {
			b := ir.BlockOfFact[i<<6|bits.TrailingZeros64(x)]
			blocks[b>>6] |= 1 << (b & 63)
			found = true
		}
	}
	if !found {
		return false
	}
	for i, word := range w {
		for x := word; x != 0; x &= x - 1 {
			b := ir.BlockOfFact[i<<6|bits.TrailingZeros64(x)]
			if blocks[b>>6]&(1<<(b&63)) != 0 {
				w[i] &^= x & -x
				m.live[r]--
			}
		}
	}
	clear(blocks)
	return true
}

// EvalMask decides whether the selected facts satisfy q under the
// pre-bound variables of b, charging g one step per search node.
func EvalMask(g *govern.Governor, q cq.Query, b Bound, m *Mask) (bool, error) {
	if g != nil {
		embeddingEnumerations.Inc()
	}
	p := compileMask(q, b, m)
	defer putProg(p)
	return p.exists(g, b.IDs)
}

// compileMask compiles q against m's view, with m's selection as the
// candidate filter and its selected counts as the relation sizes.
func compileMask(q cq.Query, b Bound, m *Mask) *iProg {
	p := getProg(q, b.Vars, m.in)
	for i, a := range q.Atoms {
		r := m.relIndex(a.Rel)
		p.ri[i], p.size[i] = r, 0
		if r >= 0 {
			p.size[i] = m.live[r]
		}
	}
	p.lower(m)
	return p
}

// purifyInterned is Purify/PurifyCtx: the mask fixpoint over d's view,
// then one Subset load of the kept facts (d itself when nothing drops).
func purifyInterned(g *govern.Governor, q cq.Query, d *db.DB) (*db.DB, error) {
	var names []string
	for _, a := range q.Atoms {
		dup := false
		for _, n := range names {
			dup = dup || n == a.Rel
		}
		if !dup {
			names = append(names, a.Rel)
		}
	}
	m := NewMask(d, names)
	if err := PurifyMask(g, q, Bound{}, m); err != nil {
		return nil, err
	}
	if m.Len() == d.Len() {
		return d, nil
	}
	return d.Subset(m.factIndexes(d)), nil
}

// factIndexes returns the indexes into d.Facts() of the selected facts, in
// insertion order; m must have been built from d. Relation fact indexes
// follow the global insertion order, so one cursor per relation resolves
// each global fact to its relation index.
func (m *Mask) factIndexes(d *db.DB) []int {
	out := make([]int, 0, m.Len())
	cursor := make([]uint32, len(m.names))
	for gi, f := range d.Facts() {
		r := m.relIndex(f.Rel)
		if r < 0 {
			if m.other > 0 {
				out = append(out, gi)
			}
			continue
		}
		if m.Has(r, cursor[r]) {
			out = append(out, gi)
		}
		cursor[r]++
	}
	return out
}
