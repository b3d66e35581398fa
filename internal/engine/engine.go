// Package engine evaluates Boolean conjunctive queries on uncertain
// databases: satisfaction (db ⊨ q), enumeration of embeddings (valuations θ
// with θ(q) ⊆ db), and purification (Lemma 1).
package engine

import (
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// MatchAtom unifies atom a with fact f under the given partial valuation.
// It returns the extended valuation and true on success; the input valuation
// is not modified.
func MatchAtom(a cq.Atom, f db.Fact, binding cq.Valuation) (cq.Valuation, bool) {
	if a.Rel != f.Rel || len(a.Args) != len(f.Args) || a.KeyLen != f.KeyLen {
		return nil, false
	}
	// First pass without allocating: verify terms already determined.
	var ext cq.Valuation
	for i, t := range a.Args {
		if t.IsConst {
			if t.Value != f.Args[i] {
				return nil, false
			}
			continue
		}
		if v, ok := binding[t.Value]; ok {
			if v != f.Args[i] {
				return nil, false
			}
			continue
		}
		if v, ok := ext[t.Value]; ok {
			if v != f.Args[i] {
				return nil, false
			}
			continue
		}
		if ext == nil {
			ext = make(cq.Valuation)
		}
		ext[t.Value] = f.Args[i]
	}
	out := binding.Clone()
	for k, v := range ext {
		out[k] = v
	}
	return out, true
}

// candidates returns the facts of d that could match atom a under binding,
// as a shared slice from the database's memoized index (callers only read).
// When all key terms of a are determined the block index narrows the scan to
// a single block; failing that, any single determined position narrows it to
// that position's posting list; only a fully undetermined atom scans the
// whole relation. Posting lists preserve insertion order and only omit facts
// MatchAtom would reject, so enumeration order is unchanged.
func candidates(a cq.Atom, binding cq.Valuation, d *db.DB) []db.Fact {
	key := make([]string, a.KeyLen)
	keyDetermined := true
	for i := 0; i < a.KeyLen; i++ {
		t := a.Args[i]
		if t.IsConst {
			key[i] = t.Value
			continue
		}
		v, ok := binding[t.Value]
		if !ok {
			keyDetermined = false
			break
		}
		key[i] = v
	}
	if keyDetermined {
		probe := db.Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: key}
		return d.BlockView(probe)
	}
	for pos, t := range a.Args {
		if t.IsConst {
			return d.FactsAt(a.Rel, pos, t.Value)
		}
		if v, ok := binding[t.Value]; ok {
			return d.FactsAt(a.Rel, pos, v)
		}
	}
	return d.RelationFacts(a.Rel)
}

// orderAtoms returns the evaluation order of q's atoms on d (see
// atomOrder), nil for the empty query.
func orderAtoms(q cq.Query, d *db.DB) []int {
	if q.Len() == 0 {
		return nil
	}
	size := make([]int, q.Len())
	for i, a := range q.Atoms {
		size[i] = d.RelationSize(a.Rel)
	}
	order, _ := atomOrder(nil, nil, q, nil, size)
	return order
}

// EachEmbedding enumerates all valuations θ over vars(q) with θ(q) ⊆ d,
// stopping early when yield returns false. Returns false iff stopped early.
// The valuation passed to yield is owned by the callee (it is freshly
// allocated per embedding).
//
// It runs on the interned data plane (see interned.go) unless SetInterned
// has deselected it; both implementations enumerate the identical sequence.
func EachEmbedding(q cq.Query, d *db.DB, yield func(cq.Valuation) bool) bool {
	if internedOn.Load() {
		cont, _ := eachEmbeddingInterned(nil, q, d, yield)
		return cont
	}
	return EachEmbeddingIndexed(q, d, yield)
}

// EachEmbeddingIndexed is the string-indexed reference implementation of
// EachEmbedding, retained for differential tests and benchmarks against
// the interned plane.
func EachEmbeddingIndexed(q cq.Query, d *db.DB, yield func(cq.Valuation) bool) bool {
	order := orderAtoms(q, d)
	var rec func(i int, binding cq.Valuation) bool
	rec = func(i int, binding cq.Valuation) bool {
		if i == len(order) {
			return yield(binding)
		}
		a := q.Atoms[order[i]]
		for _, f := range candidates(a, binding, d) {
			if next, ok := MatchAtom(a, f, binding); ok {
				if !rec(i+1, next) {
					return false
				}
			}
		}
		return true
	}
	return rec(0, cq.Valuation{})
}

// Embeddings returns all embeddings of q in d.
func Embeddings(q cq.Query, d *db.DB) []cq.Valuation {
	var out []cq.Valuation
	EachEmbedding(q, d, func(v cq.Valuation) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Eval reports whether d ⊨ q: some valuation maps every atom of q into d.
// The empty query is true everywhere.
func Eval(q cq.Query, d *db.DB) bool {
	if internedOn.Load() {
		sat, _ := evalInterned(nil, q, d)
		return sat
	}
	return EvalIndexed(q, d)
}

// EvalIndexed is the string-indexed reference implementation of Eval.
func EvalIndexed(q cq.Query, d *db.DB) bool {
	found := false
	EachEmbeddingIndexed(q, d, func(cq.Valuation) bool {
		found = true
		return false
	})
	return found
}

// EvalRepair reports whether the repair (a fact slice as produced by
// db.DB.EachRepair) satisfies q, without materializing a DB when q is small.
func EvalRepair(q cq.Query, repair []db.Fact) bool {
	return Eval(q, db.RepairDB(repair))
}

// Purify implements Lemma 1: it returns a database purified relative to q —
// every fact A of the result participates in some embedding θ with
// A ∈ θ(q) ⊆ result — such that the result is in CERTAINTY(q) iff d is.
// Whole blocks of irrelevant facts are removed until a fixpoint, on a fact
// mask over d's interned view (see PurifyMask); the result is built in one
// load, or is d itself when nothing is removed.
func Purify(q cq.Query, d *db.DB) *db.DB {
	out, _ := purifyInterned(nil, q, d)
	return out
}

// PurifyIndexed is the string-indexed reference implementation of Purify:
// used facts are marked in an ID-keyed map instead of fact-index bitsets.
func PurifyIndexed(q cq.Query, d *db.DB) *db.DB {
	cur := d
	for {
		used := make(map[string]struct{}, cur.Len())
		EachEmbeddingIndexed(q, cur, func(v cq.Valuation) bool {
			for _, a := range q.Atoms {
				f, ok := db.FactFromAtom(a.Substitute(v))
				if !ok {
					continue
				}
				used[f.ID()] = struct{}{}
			}
			return true
		})
		// Remove the blocks of all unused facts in one sweep; removing a
		// block can only invalidate further embeddings, never create ones,
		// so iterate to a fixpoint.
		removeBlocks := make(map[string]struct{})
		for _, f := range cur.Facts() {
			if _, ok := used[f.ID()]; !ok {
				removeBlocks[f.BlockID()] = struct{}{}
			}
		}
		if len(removeBlocks) == 0 {
			return cur
		}
		cur = cur.Restrict(func(f db.Fact) bool {
			_, drop := removeBlocks[f.BlockID()]
			return !drop
		})
	}
}

// IsPurified reports whether d is purified relative to q: every fact occurs
// in some embedding of q in d.
func IsPurified(q cq.Query, d *db.DB) bool {
	used := make(map[string]struct{}, d.Len())
	EachEmbedding(q, d, func(v cq.Valuation) bool {
		for _, a := range q.Atoms {
			if f, ok := db.FactFromAtom(a.Substitute(v)); ok {
				used[f.ID()] = struct{}{}
			}
		}
		return true
	})
	for _, f := range d.Facts() {
		if _, ok := used[f.ID()]; !ok {
			return false
		}
	}
	return true
}
