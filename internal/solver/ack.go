package solver

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/graph"
)

// cycleGraph is the k-partite fact graph of the Theorem 4 algorithm:
// vertices are (cycle position, constant id) pairs of the database's
// interned view, edges come from the R_i facts, and marked cycles C come
// from the S_k facts.
type cycleGraph struct {
	k   int
	g   *graph.Digraph
	ids map[uint64]int // (pos, id) → vertex id
}

func packVertex(pos int, id uint32) uint64 { return uint64(pos)<<32 | uint64(id) }

func (cg *cycleGraph) vertex(pos int, id uint32) int {
	key := packVertex(pos, id)
	if v, ok := cg.ids[key]; ok {
		return v
	}
	v := len(cg.ids)
	cg.ids[key] = v
	return v
}

// cycleSet is a set of k-cycles, each rotated to start at its smallest
// vertex and stored as k consecutive vertex ids of flat, sorted.
type cycleSet struct {
	k    int
	flat []int32
}

func (s *cycleSet) Len() int { return len(s.flat) / s.k }

func (s *cycleSet) Less(i, j int) bool {
	return slices.Compare(s.at(i), s.at(j)) < 0
}

func (s *cycleSet) Swap(i, j int) {
	a, b := s.at(i), s.at(j)
	for x := range a {
		a[x], b[x] = b[x], a[x]
	}
}

func (s *cycleSet) at(i int) []int32 { return s.flat[i*s.k : (i+1)*s.k] }

// appendRotated appends cycle c to dst rotated to start at its smallest
// vertex.
func appendRotated(dst []int32, c []int) []int32 {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	for i := range c {
		dst = append(dst, int32(c[(min+i)%len(c)]))
	}
	return dst
}

// has reports whether the rotated cycle is in the set.
func (s *cycleSet) has(rotated []int32) bool {
	i := sort.Search(s.Len(), func(i int) bool { return slices.Compare(s.at(i), rotated) >= 0 })
	return i < s.Len() && slices.Equal(s.at(i), rotated)
}

// CertainACk decides db ∈ CERTAINTY(AC(k)) in polynomial time (Theorem 4).
// The query must match the AC(k) shape; use core.MatchCycleShape or the
// dispatcher. Steps, following the proof:
//
//  1. Purify db relative to q (Lemma 1).
//  2. Build the k-partite digraph G whose vertices are (position, value)
//     pairs — positions make the type classes disjoint, as the proof
//     assumes w.l.o.g. — with an edge per R_i fact, and collect the cycle
//     set C from the S_k facts.
//  3. db ∉ CERTAINTY(q) iff one outgoing edge per vertex can be marked
//     without marking all edges of a cycle in C, which holds iff every
//     strong component of G contains a k-cycle outside C or an elementary
//     cycle longer than k.
func CertainACk(q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	return CertainACkCtx(context.Background(), q, shape, d)
}

// CertainACkCtx is CertainACk with cooperative cancellation: the governor
// bounds the purification pass and the per-component cycle analysis.
func CertainACkCtx(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	if shape == nil || shape.SkAtom < 0 {
		return false, fmt.Errorf("solver: CertainACk requires an AC(k) shape")
	}
	m, err := purifyAtoms(ctx, q, d)
	if err != nil || m.Len() == 0 {
		return false, err
	}
	cg, comps := buildCycleGraph(q, shape, m)
	return decideByComponentsCtx(ctx, cg, comps, cg.markedCycles(shape, m))
}

// CertainCk decides db ∈ CERTAINTY(C(k)) in polynomial time (Corollary 1).
// By Lemma 9, C(k) reduces to AC(k) with S_k containing every tuple over
// the active domain; every k-cycle of the fact graph is then in C, so a
// strong component is falsifiable iff it contains an elementary cycle
// longer than k. The S_k relation is never materialized.
func CertainCk(q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	return CertainCkCtx(context.Background(), q, shape, d)
}

// CertainCkCtx is CertainCk with cooperative cancellation.
func CertainCkCtx(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	if shape == nil || shape.SkAtom >= 0 {
		return false, fmt.Errorf("solver: CertainCk requires a C(k) shape")
	}
	m, err := purifyAtoms(ctx, q, d)
	if err != nil || m.Len() == 0 {
		return false, err
	}
	cg, comps := buildCycleGraph(q, shape, m)
	return decideByComponentsCtx(ctx, cg, comps, nil)
}

// purifyAtoms purifies d relative to the self-join-free query q (Lemma 1)
// on a fact mask over d's interned view whose relation r is q.Atoms[r]'s.
func purifyAtoms(ctx context.Context, q cq.Query, d *db.DB) (*engine.Mask, error) {
	names := make([]string, q.Len())
	for i, a := range q.Atoms {
		names[i] = a.Rel
	}
	m := engine.NewMask(d, names)
	if err := engine.PurifyMask(govern.From(ctx), q, engine.Bound{}, m); err != nil {
		return nil, err
	}
	return m, nil
}

// buildCycleGraph constructs the fact graph of the selected facts and its
// strong components. When the selection is purified, no edge crosses strong
// components (every fact lies on a cycle witnessed by an embedding); the
// components are returned as vertex sets.
func buildCycleGraph(q cq.Query, shape *core.CycleShape, m *engine.Mask) (*cycleGraph, [][]int) {
	k := shape.K
	cg := &cycleGraph{k: k, ids: make(map[uint64]int)}
	var edges [][2]int
	for pos, ai := range shape.CycleAtoms {
		ir := m.Rel(ai)
		for fi := uint32(0); fi < uint32(ir.NumFacts()); fi++ {
			if m.Has(ai, fi) {
				u := cg.vertex(pos, ir.Cols[0][fi])
				v := cg.vertex((pos+1)%k, ir.Cols[1][fi])
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	cg.g = graph.New(len(cg.ids))
	for _, e := range edges {
		cg.g.AddEdge(e[0], e[1])
	}
	return cg, cg.g.SCCs()
}

// markedCycles returns the cycles in C, read from the selected S_k facts
// through the shape's position permutation.
func (cg *cycleGraph) markedCycles(shape *core.CycleShape, m *engine.Mask) *cycleSet {
	set := &cycleSet{k: shape.K}
	ir := m.Rel(shape.SkAtom)
	cycle := make([]int, shape.K)
	for fi := uint32(0); fi < uint32(ir.NumFacts()); fi++ {
		if !m.Has(shape.SkAtom, fi) {
			continue
		}
		ok := true
		for j, col := range ir.Cols {
			p := shape.SkPositions[j]
			v, exists := cg.ids[packVertex(p, col[fi])]
			if !exists {
				// The S_k fact references a value with no incident R-edge;
				// it can never be fully marked, so it constrains nothing.
				ok = false
				break
			}
			cycle[p] = v
		}
		if ok {
			set.flat = appendRotated(set.flat, cycle)
		}
	}
	sort.Sort(set)
	return set
}

// decideByComponentsCtx applies the per-component case analysis of
// Theorem 4's proof. inC is the set of k-cycles belonging to C; nil means
// "every k-cycle is in C" (the C(k) case).
//
// A component admits a marking iff it contains a k-cycle not in C, or an
// elementary cycle of length > k. db is certain iff some component admits
// no marking. Components that are single vertices without self-loops
// cannot occur on purified databases (every vertex lies on a cycle of
// length k); they are treated as admitting no marking, which errs on the
// side of "certain" and is exercised only through direct API misuse.
// One governor step is charged per strong component.
func decideByComponentsCtx(ctx context.Context, cg *cycleGraph, comps [][]int, inC *cycleSet) (bool, error) {
	g := govern.From(ctx)
	for _, comp := range comps {
		if err := g.Step(); err != nil {
			return false, err
		}
		if markableComponent(cg, comp, inC) {
			continue
		}
		return true, nil // some strong component forces q in every repair
	}
	return false, nil
}

func markableComponent(cg *cycleGraph, comp []int, inC *cycleSet) bool {
	sub, orig := cg.g.Subgraph(comp)
	if inC != nil {
		rotated := make([]int32, 0, cg.k)
		mapped := make([]int, cg.k)
		for _, c := range sub.CyclesOfLength(cg.k) {
			for i, v := range c {
				mapped[i] = orig[v]
			}
			rotated = appendRotated(rotated[:0], mapped)
			if !inC.has(rotated) {
				return true
			}
		}
	}
	if _, ok := sub.HasCycleLongerThan(cg.k); ok {
		return true
	}
	return false
}
