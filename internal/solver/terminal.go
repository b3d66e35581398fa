package solver

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/jointree"
)

// CertainTerminal decides db ∈ CERTAINTY(q) in polynomial time for acyclic
// self-join-free queries all of whose attack cycles are weak and terminal,
// implementing the proof of Theorem 3:
//
//   - Induction step: while an unattacked atom F exists, the query is
//     certain iff for some constant vector ā over key(F) (equivalently:
//     for some block of F's relation; Corollary 8.11 of [Wijsen, TODS
//     2012]), after purification every fact of that block unifies with F
//     and makes the instantiated remainder certain (Lemma 8). Lemma 5
//     guarantees the remainder's attack cycles stay weak and terminal.
//   - Base case: every atom lies on a weak terminal 2-cycle; by Lemma 6
//     the attack graph is a disjoint union of 2-cycles {Fi, Gi}. The facts
//     of each cycle's relations are partitioned by the values of the
//     variables shared with other cycles (contained in both keys by
//     Lemma 7); each partition is decided with the two-atom weak-cycle
//     solver, and by Sublemma 5 the query is certain iff the union of the
//     certain partitions satisfies q.
//
// The recursion's shape depends on the query alone (see terminalSkeleton),
// so it is compiled at most once per call here, and once per plan by
// CompilePlan.
func CertainTerminal(q cq.Query, d *db.DB) (bool, error) {
	return CertainTerminalCtx(context.Background(), q, d)
}

// CertainTerminalCtx is CertainTerminal with cooperative cancellation: the
// governor bounds the recursive induction steps as well as the embedded
// purification passes.
func CertainTerminalCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	return newTerminalSkeleton(q).certain(govern.From(ctx), d)
}

// terminalSkeleton is the query-only part of Theorem 3's recursion. An
// attack graph is built from variables alone (KeyVars, Vars, join-tree
// labels) and does not depend on the join tree chosen, and unifying the
// eliminated atom F with a fact binds exactly vars(F). So the residual
// query at recursion depth L is always the same atoms with the same
// variables fixed, whatever the constants: the unattacked atom eliminated
// at each depth, the weak-cycle check, and the base case's 2-cycles with
// their shared variables are computed once, on the query with a
// placeholder in every fixed position.
//
// At solve time one terminalRun walks the skeleton over a fact mask of
// the database's interned view: each node purifies its parent's selection
// against its residual query with the fixed variables pre-bound as ids,
// probes candidate blocks through the view's block index, and unifies
// facts as id vectors. The levels are built once and then only read, so a
// skeleton is safe for concurrent use.
type terminalSkeleton struct {
	q      cq.Query
	names  []string // relation of each atom: the mask's relation list
	vars   []string // slot → variable of q
	consts []string // constants of q, referenced by index from patterns
	levels []termLevel
	once   sync.Once
}

// termLevel is one recursion depth.
type termLevel struct {
	q     cq.Query // the residual atoms, unsubstituted, in q's order
	bound []string // the variables bound on entry
	slots []int    // their slots
	// err is raised when a node reaches this level with a nonempty
	// purified selection: the residual query violates Theorem 3's
	// hypothesis (or has no attack graph).
	err error
	// elim is the unattacked atom (index in q) eliminated at this level,
	// -1 at the base case and at the empty residual query.
	elim int
	// unify matches facts of q.Atoms[elim] and binds its new variables;
	// keyFixed reports that every key position is constant or bound, so
	// the only candidate is one block.
	unify    pairPattern
	keyFixed bool
	cycles   []termCycle // base case
}

// termCycle is one weak terminal 2-cycle of the base case.
type termCycle struct {
	atoms [2]int         // F and G, indexes in q
	pats  [2]pairPattern // their facts' patterns under the level's bound variables
	// key lists the slots of the partition vector x̄_i (the cycle's
	// variables shared with other cycles) and then of the signature
	// S = vars(F) ∩ vars(G), each sorted by name; sigOff is S's offset.
	key    []int
	sigOff int
}

// newTerminalSkeleton starts the skeleton of q: the relation list and the
// variable slots. The levels are built on first need (build).
func newTerminalSkeleton(q cq.Query) *terminalSkeleton {
	sk := &terminalSkeleton{q: q, names: make([]string, q.Len())}
	for i, a := range q.Atoms {
		sk.names[i] = a.Rel
		for _, t := range a.Args {
			if t.IsVar() && !slices.Contains(sk.vars, t.Value) {
				sk.vars = append(sk.vars, t.Value)
			}
		}
	}
	return sk
}

// compileTerminal computes the recursion skeleton of q, levels included.
func compileTerminal(q cq.Query) *terminalSkeleton {
	sk := newTerminalSkeleton(q)
	sk.build()
	return sk
}

// build computes the levels once. It never fails: a level whose residual
// query violates the hypothesis records its error, which surfaces only
// when a solve reaches that level with data left, as in the proof's
// recursion.
func (sk *terminalSkeleton) build() { sk.once.Do(sk.buildLevels) }

func (sk *terminalSkeleton) buildLevels() {
	q := sk.q
	slot := func(v string) int { return slices.Index(sk.vars, v) }
	constIdx := func(c string) int {
		sk.consts = append(sk.consts, c)
		return len(sk.consts) - 1
	}
	bound := make([]bool, len(sk.vars))
	isBound := func(s int) bool { return bound[s] }
	atoms := make([]int, q.Len())
	for i := range atoms {
		atoms[i] = i
	}
	for {
		lv := termLevel{elim: -1}
		for _, ai := range atoms {
			lv.q.Atoms = append(lv.q.Atoms, q.Atoms[ai])
		}
		for s, b := range bound {
			if b {
				lv.bound = append(lv.bound, sk.vars[s])
				lv.slots = append(lv.slots, s)
			}
		}
		if len(atoms) == 0 {
			sk.levels = append(sk.levels, lv)
			return
		}
		shape := residualShape(lv.q, bound, slot)
		g, err := core.BuildAttackGraph(shape, jointree.TieBreakLex)
		switch {
		case err != nil:
			lv.err = err
		case !g.AllCyclesWeakAndTerminal():
			lv.err = fmt.Errorf("solver: CertainTerminal requires all attack cycles weak and terminal: %s", shape)
		default:
			if un := g.Unattacked(); len(un) > 0 {
				lv.elim = atoms[un[0]]
				F := q.Atoms[lv.elim]
				lv.unify = compilePattern(F, slot, isBound, constIdx)
				lv.keyFixed = true
				for _, pa := range lv.unify[:F.KeyLen] {
					lv.keyFixed = lv.keyFixed && (pa.kind == patConst || pa.kind == patEnv)
				}
				sk.levels = append(sk.levels, lv)
				for _, t := range F.Args {
					if t.IsVar() {
						bound[slot(t.Value)] = true
					}
				}
				atoms = slices.DeleteFunc(atoms, func(ai int) bool { return ai == lv.elim })
				continue
			}
			lv.cycles, lv.err = baseCycles(q, atoms, shape, g, slot, isBound, constIdx)
		}
		sk.levels = append(sk.levels, lv)
		return
	}
}

// residualShape is the level's residual query with a placeholder constant
// in every position of a bound variable (and of every constant).
func residualShape(rq cq.Query, bound []bool, slot func(string) int) cq.Query {
	shape := maskShape(rq)
	for _, a := range shape.Atoms {
		for j, t := range a.Args {
			if t.IsVar() && bound[slot(t.Value)] {
				a.Args[j] = cq.Const(shapePlaceholder)
			}
		}
	}
	return shape
}

// baseCycles compiles the base case: every residual atom must lie on one of
// the attack graph's weak terminal 2-cycles (Lemma 6).
func baseCycles(q cq.Query, atoms []int, shape cq.Query, g *core.AttackGraph, slot func(string) int, isBound func(int) bool, constIdx func(string) int) ([]termCycle, error) {
	cycles := g.TerminalWeakCycles()
	inCycle := make(map[int]bool)
	for _, c := range cycles {
		inCycle[c.F] = true
		inCycle[c.G] = true
	}
	if len(inCycle) != shape.Len() {
		return nil, fmt.Errorf("solver: base case expects every atom on a 2-cycle: %s", shape)
	}
	// Shared variables x̄_i: variables of cycle i occurring in other cycles.
	cycleVars := make([]cq.VarSet, len(cycles))
	for i, c := range cycles {
		cycleVars[i] = shape.Atoms[c.F].Vars().Union(shape.Atoms[c.G].Vars())
	}
	out := make([]termCycle, len(cycles))
	for i, c := range cycles {
		shared := make(cq.VarSet)
		for j := range cycles {
			if j != i {
				shared.AddAll(cycleVars[i].Intersect(cycleVars[j]))
			}
		}
		F, G := shape.Atoms[c.F], shape.Atoms[c.G]
		sig, err := weakPairVars(F, G)
		if err != nil {
			return nil, err
		}
		tc := termCycle{atoms: [2]int{atoms[c.F], atoms[c.G]}}
		for _, v := range shared.Sorted() {
			tc.key = append(tc.key, slot(v))
		}
		tc.sigOff = len(tc.key)
		for _, v := range sig {
			tc.key = append(tc.key, slot(v))
		}
		for side := range tc.pats {
			tc.pats[side] = compilePattern(q.Atoms[tc.atoms[side]], slot, isBound, constIdx)
		}
		out[i] = tc
	}
	return out, nil
}

// terminalRun is one solve over a skeleton: the view's constant ids, the
// variable environment (slot → id), and one mask per level, reused by
// every node of that level (siblings run one after another).
type terminalRun struct {
	sk     *terminalSkeleton
	g      *govern.Governor
	consts []uint32
	env    []uint32
	pre    []uint32
	key    []uint32
	masks  []*engine.Mask
	good   *engine.Mask
	pairs  pairScratch
}

// certain decides d ∈ CERTAINTY(q) for the skeleton's query. The root's
// purification needs no level, so it runs first: a database it empties
// never pays for the attack graphs of an unbuilt skeleton.
func (sk *terminalSkeleton) certain(g *govern.Governor, d *db.DB) (bool, error) {
	if err := g.Step(); err != nil {
		return false, err
	}
	if sk.q.IsEmpty() {
		return true, nil
	}
	top := engine.NewMask(d, sk.names)
	// Facts outside q's relations embed nothing; the purification needs no
	// round to find that out.
	top.DropOthers()
	if err := engine.PurifyMask(g, sk.q, engine.Bound{}, top); err != nil {
		return false, err
	}
	if top.Len() == 0 {
		return false, nil
	}
	sk.build()
	r := &terminalRun{
		sk:     sk,
		g:      g,
		consts: lookupIDs(top.View(), sk.consts, nil),
		env:    make([]uint32, len(sk.vars)),
		masks:  make([]*engine.Mask, len(sk.levels)),
	}
	r.masks[0] = top
	return r.decide(0, top)
}

// node decides the residual query at level l > 0 over the selection its
// parent left in masks[l-1].
func (r *terminalRun) node(l int) (bool, error) {
	if err := r.g.Step(); err != nil {
		return false, err
	}
	lv := &r.sk.levels[l]
	if lv.q.IsEmpty() {
		return true, nil
	}
	m := r.masks[l]
	if m == nil {
		m = r.masks[l-1].Clone()
		r.masks[l] = m
	} else {
		m.CopyFrom(r.masks[l-1])
	}
	// The eliminated atom's relation is outside the residual query.
	m.DropRel(r.sk.levels[l-1].elim)
	if err := engine.PurifyMask(r.g, lv.q, r.bound(lv), m); err != nil {
		return false, err
	}
	if m.Len() == 0 {
		return false, nil
	}
	return r.decide(l, m)
}

// decide continues a node at level l whose purified selection m is
// nonempty: the induction step or the base case.
func (r *terminalRun) decide(l int, m *engine.Mask) (bool, error) {
	lv := &r.sk.levels[l]
	if lv.err != nil {
		return false, lv.err
	}
	if lv.elim >= 0 {
		return r.step(l, m)
	}
	return r.base(lv, m)
}

// bound returns the level's pre-bound variables with their current ids.
func (r *terminalRun) bound(lv *termLevel) engine.Bound {
	r.pre = r.pre[:0]
	for _, s := range lv.slots {
		r.pre = append(r.pre, r.env[s])
	}
	return engine.Bound{Vars: lv.bound, IDs: r.pre}
}

// step is the induction step (Lemma 8) for the level's unattacked atom F:
// some block of F's relation — the one its fixed key selects, or any —
// must have every fact unify with F and leave a certain remainder. (Facts
// of the block outside F's pattern make it unusable: a repair choosing
// such a fact has no F-image with this key.)
func (r *terminalRun) step(l int, m *engine.Mask) (bool, error) {
	lv := &r.sk.levels[l]
	e := lv.elim
	ir := m.Rel(e) // purification left facts, so every residual relation has some
	if lv.keyFixed {
		r.key = r.key[:0]
		for _, pa := range lv.unify[:ir.KeyLen] {
			if pa.kind == patConst {
				r.key = append(r.key, r.consts[pa.x])
			} else {
				r.key = append(r.key, r.env[pa.x])
			}
		}
		span, ok := ir.BlockOf(r.key)
		if !ok || !m.Has(e, span[0]) {
			return false, nil
		}
		return r.block(l, ir, span)
	}
	for b := 0; b < ir.NumBlocks(); b++ {
		// Purification keeps or drops whole blocks.
		span := ir.BlockSpan(b)
		if !m.Has(e, span[0]) {
			continue
		}
		if ok, err := r.block(l, ir, span); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// block checks one candidate block of the eliminated atom.
func (r *terminalRun) block(l int, ir *db.IRel, span []uint32) (bool, error) {
	lv := &r.sk.levels[l]
	for _, fi := range span {
		if !lv.unify.match(ir, fi, r.consts, r.env) {
			return false, nil
		}
		sub, err := r.node(l + 1)
		if err != nil || !sub {
			return false, err
		}
	}
	return true, nil
}

// base is the base case over the purified selection m: per cycle, the
// facts of its two relations are partitioned by their x̄_i vector; each
// partition is decided with the two-atom weak-cycle solver, and the
// residual query is evaluated over the union of the certain partitions
// (Sublemma 5).
func (r *terminalRun) base(lv *termLevel, m *engine.Mask) (bool, error) {
	if r.good == nil {
		r.good = m.Clone()
	}
	r.good.Clear()
	sc := &r.pairs
	for ci := range lv.cycles {
		c := &lv.cycles[ci]
		sc.reset(len(c.key))
		var nblocks [2]int
		for side, ai := range c.atoms {
			ir := m.Rel(ai)
			nblocks[side] = ir.NumBlocks()
			for fi := uint32(0); fi < uint32(ir.NumFacts()); fi++ {
				if !m.Has(ai, fi) {
					continue
				}
				// Purification guarantees every fact unifies with its atom,
				// and Lemma 7 puts the shared variables inside both keys, so
				// the partition vector is well defined.
				if !c.pats[side].match(ir, fi, r.consts, r.env) {
					return false, fmt.Errorf("solver: purified fact %s does not match %s",
						r.sk.names[ai], r.sk.q.Atoms[ai])
				}
				sc.add(uint8(side), fi, ir.BlockOfFact[fi], r.env, c.key)
			}
		}
		sc.sortFacts()
		facts := sc.facts
		for lo := 0; lo < len(facts); {
			hi := lo + 1
			for hi < len(facts) && slices.Equal(sc.keyOf(facts[hi])[:c.sigOff], sc.keyOf(facts[lo])[:c.sigOff]) {
				hi++
			}
			certain, err := sc.certain(facts[lo:hi], nil, c.sigOff, nblocks)
			if err != nil {
				return false, err
			}
			if certain {
				for _, f := range facts[lo:hi] {
					r.good.Add(c.atoms[f.side], f.fi)
				}
			}
			lo = hi
		}
	}
	return engine.EvalMask(r.g, lv.q, r.bound(lv), r.good)
}
