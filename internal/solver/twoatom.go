package solver

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/intern"
)

// This file decides CERTAINTY({F,G}) for two-atom self-join-free queries
// whose attack graph is a weak 2-cycle — the Kolaitis–Pema "in P but not
// first-order" case, and the base case of Theorem 3.
//
// Kolaitis and Pema solve these instances by reduction to maximum
// independent set in claw-free graphs (Minty's algorithm). We exploit the
// structure the weak cycle forces to get a direct polynomial algorithm:
//
// Both attacks weak means key(G) ⊆ vars(F) and key(F) ⊆ vars(G), hence
// both keys lie in the shared variables S = vars(F) ∩ vars(G). For a fact A
// matching F, let σ(A) be the restriction to S of the valuation induced by
// A ("signature"). Facts A (of F's relation) and B (of G's) jointly embed q
// iff σ(A) = σ(B). Because key(F) ⊆ S and key(G) ⊆ S, a signature value
// determines both the F-block and the G-block containing its facts, so
// conflicts group into complete-bipartite clusters, one per signature,
// spanning exactly one F-block and one G-block.
//
// A falsifying repair picks one fact per block avoiding every cluster. Per
// block the choice only matters up to signature, and a fact that matches no
// partner (or does not match its own atom's constants) is a free choice.
// Consider the bipartite multigraph on blocks whose edges are the
// signatures live on both sides. A block with a free choice can avoid every
// cluster; then each neighbor's shared signature is no longer a conflict it
// must claim, so it is free too: freedom spreads through whole connected
// components. In a component without a free choice each block must claim
// one incident edge with no edge claimed twice, which is possible iff the
// component has at least as many edges as vertices (i.e., is not a tree).
// Hence:
//
//	db is certain ⟺ some component without a free choice is a tree.

// pairPattern matches facts of one atom of a weak cycle: per argument
// position one test, given the values of the variables bound outside the
// pair. A variable unbound outside occurs first as a patFree position;
// repeats test equality with that position.
type pairPattern []patArg

type patArg struct {
	kind uint8 // patConst, patEnv, patSame or patFree
	x    int   // patConst: constant index; patEnv/patFree: slot; patSame: earlier position
}

const (
	patConst uint8 = iota // equals the constant consts[x]
	patEnv                // equals env[x], a variable bound outside the pair
	patSame               // equals the value at position x of the same fact
	patFree               // first occurrence of slot x: binds it
)

// compilePattern lowers atom a: slot maps a variable to its environment
// slot, bound reports the slots fixed outside the pair, and constIdx maps a
// constant to its index into the runtime constant ids.
func compilePattern(a cq.Atom, slot func(string) int, bound func(int) bool, constIdx func(string) int) pairPattern {
	pat := make(pairPattern, len(a.Args))
	for pos, t := range a.Args {
		switch {
		case t.IsConst:
			pat[pos] = patArg{kind: patConst, x: constIdx(t.Value)}
		case bound(slot(t.Value)):
			pat[pos] = patArg{kind: patEnv, x: slot(t.Value)}
		default:
			pat[pos] = patArg{kind: patFree, x: slot(t.Value)}
			for p := 0; p < pos; p++ {
				if a.Args[p].IsVar() && a.Args[p].Value == t.Value {
					pat[pos] = patArg{kind: patSame, x: p}
					break
				}
			}
		}
	}
	return pat
}

// match reports whether fact fi of ir matches the pattern, writing the
// values of its free variables into env.
func (pat pairPattern) match(ir *db.IRel, fi uint32, consts, env []uint32) bool {
	if ir.Arity != len(pat) {
		return false
	}
	for pos, pa := range pat {
		v := ir.Cols[pos][fi]
		switch pa.kind {
		case patConst:
			if v != consts[pa.x] {
				return false
			}
		case patEnv:
			if v != env[pa.x] {
				return false
			}
		case patSame:
			if v != ir.Cols[pa.x][fi] {
				return false
			}
		default:
			env[pa.x] = v
		}
	}
	return true
}

// pairFact is one fact of a weak cycle: its side (0 for F's relation, 1
// for G's), its index and block ordinal in that relation, and its key — the
// partition vector, then the signature — at key*stride in pairScratch.keys.
type pairFact struct {
	side  uint8
	fi    uint32
	block uint32
	key   int32
}

// pairScratch is the reusable state of the two-atom decision.
type pairScratch struct {
	facts  []pairFact
	keys   []uint32
	stride int
	// local maps (side, block ordinal) to a local block id, -1 when unseen;
	// reset after each partition.
	local  [2][]int32
	parent []int32
	bad    []bool
	verts  []int32
	edges  []int32
	ends   []int32
}

func (sc *pairScratch) reset(stride int) {
	sc.facts, sc.keys, sc.stride = sc.facts[:0], sc.keys[:0], stride
}

// add records fact fi of the given side with its key read from env.
func (sc *pairScratch) add(side uint8, fi, block uint32, env []uint32, keySlots []int) {
	sc.facts = append(sc.facts, pairFact{side: side, fi: fi, block: block, key: int32(len(sc.keys) / max(sc.stride, 1))})
	for _, s := range keySlots {
		sc.keys = append(sc.keys, env[s])
	}
}

func (sc *pairScratch) keyOf(f pairFact) []uint32 {
	k := int(f.key) * sc.stride
	return sc.keys[k : k+sc.stride]
}

// sortFacts orders the facts by key, side and block, so that partitions,
// then signature groups within them, then blocks within a group's side are
// contiguous.
func (sc *pairScratch) sortFacts() {
	slices.SortFunc(sc.facts, func(a, b pairFact) int {
		if c := slices.Compare(sc.keyOf(a), sc.keyOf(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.side, b.side); c != 0 {
			return c
		}
		return cmp.Compare(a.block, b.block)
	})
}

// certain decides one partition: facts (sorted by sortFacts, all with
// equal partition vectors) whose key from sigOff on is the signature, plus
// the facts of free choices, which match no pattern. nblocks gives each
// side's block count.
func (sc *pairScratch) certain(facts, free []pairFact, sigOff int, nblocks [2]int) (bool, error) {
	for side := range sc.local {
		if len(sc.local[side]) < nblocks[side] {
			sc.local[side] = make([]int32, nblocks[side])
			for i := range sc.local[side] {
				sc.local[side][i] = -1
			}
		}
	}
	sc.parent, sc.bad, sc.ends = sc.parent[:0], sc.bad[:0], sc.ends[:0]
	localOf := func(f pairFact) int32 {
		id := sc.local[f.side][f.block]
		if id < 0 {
			id = int32(len(sc.parent))
			sc.local[f.side][f.block] = id
			sc.parent = append(sc.parent, id)
			sc.bad = append(sc.bad, false)
		}
		return id
	}
	defer func() {
		for _, set := range [][]pairFact{facts, free} {
			for _, f := range set {
				sc.local[f.side][f.block] = -1
			}
		}
	}()
	for _, f := range free {
		sc.bad[localOf(f)] = true
	}
	sig := func(f pairFact) []uint32 { return sc.keyOf(f)[sigOff:] }
	for lo := 0; lo < len(facts); {
		hi := lo + 1
		for hi < len(facts) && slices.Equal(sig(facts[hi]), sig(facts[lo])) {
			hi++
		}
		// One signature: its facts on each side, sorted by block.
		var blocks [2]int
		var end [2]int32
		for i := lo; i < hi; i++ {
			f := facts[i]
			id := localOf(f)
			if i == lo || f.side != facts[i-1].side || f.block != facts[i-1].block {
				blocks[f.side]++
				end[f.side] = id
			}
		}
		switch {
		case blocks[0] > 1 || blocks[1] > 1:
			return false, fmt.Errorf("solver: signature spans multiple blocks; weak-cycle invariant violated")
		case blocks[0] == 1 && blocks[1] == 1:
			// A live edge between the signature's two blocks.
			sc.ends = append(sc.ends, end[0])
			sc.union(end[0], end[1])
		default:
			// The signature has no partner: its block can avoid q.
			for i := lo; i < hi; i++ {
				sc.bad[localOf(facts[i])] = true
			}
		}
		lo = hi
	}
	n := len(sc.parent)
	sc.verts = growInt32(sc.verts, n)
	sc.edges = growInt32(sc.edges, n)
	for b := 0; b < n; b++ {
		r := sc.find(int32(b))
		sc.verts[r]++
		if sc.bad[b] {
			sc.bad[r] = true
		}
	}
	for _, u := range sc.ends {
		sc.edges[sc.find(u)]++
	}
	for b := 0; b < n; b++ {
		if sc.find(int32(b)) == int32(b) && !sc.bad[b] && sc.edges[b] < sc.verts[b] {
			// A tree without a free choice: no falsifying choice exists
			// within it, so every repair satisfies q.
			return true, nil
		}
	}
	// Every component can avoid all conflicts — also when there is none at
	// all: the empty repair falsifies the nonempty query.
	return false, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (sc *pairScratch) find(x int32) int32 {
	for sc.parent[x] != x {
		sc.parent[x] = sc.parent[sc.parent[x]]
		x = sc.parent[x]
	}
	return x
}

func (sc *pairScratch) union(a, b int32) {
	if ra, rb := sc.find(a), sc.find(b); ra != rb {
		sc.parent[ra] = rb
	}
}

// weakPairVars checks the weak-cycle hypothesis key(G) ⊆ vars(F) and
// key(F) ⊆ vars(G), and returns the signature variables
// S = vars(F) ∩ vars(G), sorted.
func weakPairVars(F, G cq.Atom) ([]string, error) {
	fv, gv := F.Vars(), G.Vars()
	if !G.KeyVars().SubsetOf(fv) || !F.KeyVars().SubsetOf(gv) {
		return nil, fmt.Errorf("solver: two-atom solver requires a weak cycle: key(G) ⊆ vars(F) and key(F) ⊆ vars(G) (%s, %s)", F, G)
	}
	return fv.Intersect(gv).Sorted(), nil
}

// lookupIDs appends the ids of names in the view to dst, intern.None for
// names absent from it (they match nothing).
func lookupIDs(in *db.Interned, names []string, dst []uint32) []uint32 {
	for _, c := range names {
		id, ok := in.Syms.Lookup(c)
		if !ok {
			id = intern.None
		}
		dst = append(dst, id)
	}
	return dst
}

// certainTwoAtomWeak decides d ∈ CERTAINTY({F, G}) for a weak 2-cycle on
// any database (purified or not), over d's interned view.
func certainTwoAtomWeak(F, G cq.Atom, d *db.DB) (bool, error) {
	sigVars, err := weakPairVars(F, G)
	if err != nil {
		return false, err
	}
	vars := append([]string(nil), sigVars...)
	slot := func(v string) int {
		if i := slices.Index(vars, v); i >= 0 {
			return i
		}
		vars = append(vars, v)
		return len(vars) - 1
	}
	in := d.Interned()
	var constNames []string
	constIdx := func(c string) int {
		constNames = append(constNames, c)
		return len(constNames) - 1
	}
	never := func(int) bool { return false }
	pats := [2]pairPattern{compilePattern(F, slot, never, constIdx), compilePattern(G, slot, never, constIdx)}
	consts := lookupIDs(in, constNames, nil)
	env := make([]uint32, len(vars))
	sigSlots := make([]int, len(sigVars))
	for i := range sigSlots {
		sigSlots[i] = i
	}
	var sc pairScratch
	sc.reset(len(sigSlots))
	var free []pairFact
	var nblocks [2]int
	for side, a := range [2]cq.Atom{F, G} {
		ir := in.Rel(a.Rel)
		if ir == nil {
			continue
		}
		nblocks[side] = ir.NumBlocks()
		for fi := uint32(0); fi < uint32(ir.NumFacts()); fi++ {
			if ir.KeyLen == a.KeyLen && pats[side].match(ir, fi, consts, env) {
				sc.add(uint8(side), fi, ir.BlockOfFact[fi], env, sigSlots)
			} else {
				// A fact that does not match the atom's pattern joins with
				// nothing: a free choice.
				free = append(free, pairFact{side: uint8(side), fi: fi, block: ir.BlockOfFact[fi]})
			}
		}
	}
	sc.sortFacts()
	return sc.certain(sc.facts, free, 0, nblocks)
}
