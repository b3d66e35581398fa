// Package shard partitions a CERTAINTY(q) instance into independent
// sub-instances that can be solved in parallel and recombined exactly.
//
// The partition works at two levels. First the query splits into its
// variable-disjoint connected components q = q₁ ∧ … ∧ q_m; a repair
// satisfies q iff it satisfies every qⱼ, and satisfaction of qⱼ depends only
// on the facts of qⱼ's relations, so
//
//	certain(q, db) = ∧ⱼ certain(qⱼ, dbⱼ).
//
// Second, for one connected qⱼ, the facts of its relations split by the
// connected components of the fact co-occurrence graph: facts in the same
// block are linked (a repair picks exactly one of them), and facts sharing a
// constant at positions of the same query variable are linked (they could be
// assigned by one embedding). Every embedding of the connected qⱼ maps atoms
// that share variables to facts that agree on those variables' values, so
// the embedding's image is connected in the graph and lies inside a single
// component D₁ … D_k. A repair of dbⱼ is an independent choice of repairs of
// the components, and it satisfies qⱼ iff some component's part does, so
//
//	certain(qⱼ, dbⱼ) = ∨ᵢ certain(qⱼ, Dᵢ),
//	♯sat(qⱼ, dbⱼ)    = ∏ᵢ Nᵢ − ∏ᵢ (Nᵢ − sᵢ)      (Nᵢ repairs, sᵢ satisfying),
//	Pr(qⱼ | dbⱼ)     = 1 − ∏ᵢ (1 − Pr(qⱼ | Dᵢ))   (uniform repairs).
//
// The graph links conservatively — sharing a value at some variable's
// positions does not mean an embedding actually uses both facts — so the
// partition may be coarser than optimal, but coarser is always sound: the
// invariant that no embedding crosses a shard boundary is preserved by any
// merging of components. Blocks of relations outside q multiply the repair
// count and cancel out of certainty and probability.
//
// The package computes only the decomposition; the solver layer runs the
// per-shard decisions (internal/solver), and the counting layer applies the
// product/convolution algebra (internal/prob). Both fan out on the bounded
// worker pool in pool.go, which draws from the same process-wide
// govern.Workers gate as CertainACkParallel so nested layers never multiply
// goroutines.
package shard

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

// Decomposition telemetry: decompositions performed, the data shards they
// produced, and the shard databases actually built. Aggregate counters; the
// per-shard identity rides on the solver's spans (one span per shard with
// comp/shard attributes).
var (
	decomposeTotal    = obs.Default.Counter("shard_decompose_total")
	instancesTotal    = obs.Default.Counter("shard_instances_total")
	materializedTotal = obs.Default.Counter("shard_materialized_total")
)

func init() {
	obs.Default.Help("shard_decompose_total", "Instance decompositions computed by the shard layer.")
	obs.Default.Help("shard_instances_total", "Independent sub-instances produced across all decompositions.")
	obs.Default.Help("shard_materialized_total", "Shard databases built to be solved or counted.")
}

// Decomposition is the exact split of one (query, database) instance:
// Components[j] is the j-th variable-disjoint query component, and its
// independent data shards are given by FactIndexes[j] and Blocks[j], each
// shard a union of whole blocks closed under the fact co-occurrence graph.
// The shards' databases are not built here: Shard builds one on demand, so
// a caller that settles a shard some other way (a memoized verdict) never
// pays for its database. IrrelevantBlocks are the sizes of the blocks whose
// relation does not occur in the query; they multiply repair counts and are
// irrelevant to certainty.
type Decomposition struct {
	Query            cq.Query
	Components       []cq.Query
	IrrelevantBlocks []int

	// FactIndexes[j][i] lists, increasing, the indexes into the parent
	// database's Facts() of the facts of shard i of component j.
	FactIndexes [][][]int

	// Blocks[j][i] is the sorted list of block IDs (Fact.BlockID) making up
	// shard i of component j. Together with the parent database's per-block
	// digests it determines the shard's content exactly, which is what
	// ShardFingerprint hashes.
	Blocks [][][]string

	// d is the parent database the shards are built from.
	d *db.DB

	// blockRels[j][i][k] is the relation of block Blocks[j][i][k], so
	// fingerprinting can look the block's digest up in the parent database
	// without parsing the ID.
	blockRels [][][]string

	// compKeys memoizes the canonical key of each query component, filled
	// lazily under fpMu by ShardFingerprint.
	fpMu     sync.Mutex
	compKeys []string
}

// Shard builds the database of shard i of component j: the shard's facts
// in the parent database's insertion order, in one load. Each call builds a
// fresh database, so callers build a shard only where they solve it.
func (dec *Decomposition) Shard(j, i int) *db.DB {
	materializedTotal.Inc()
	return dec.d.Subset(dec.FactIndexes[j][i])
}

// NumShards is the total number of data shards across all query components.
func (dec *Decomposition) NumShards() int {
	n := 0
	for _, s := range dec.FactIndexes {
		n += len(s)
	}
	return n
}

// MaxComponentShards is the largest shard count of any single query
// component — the width of the disjunction the solver joins.
func (dec *Decomposition) MaxComponentShards() int {
	m := 0
	for _, s := range dec.FactIndexes {
		m = max(m, len(s))
	}
	return m
}

// varOcc is one occurrence of a multi-occurrence variable: the variable's
// number v and the argument position pos.
type varOcc struct {
	v   int32
	pos int
}

// bucketKey is one (variable, value) pair: facts carrying value at
// positions of variable v could be joined by one embedding.
type bucketKey struct {
	v   int32
	val string
}

// relPart is one query relation during Decompose. Its blocks are the
// union-find elements base … base+len(bids)-1, numbered by the relation's
// block ordinals.
type relPart struct {
	name string
	comp int
	ords []int32  // block ordinal of each fact, relation order
	bids []string // block ID of each ordinal
	base int32
	next int // facts of the relation seen so far in the global scan
	occs []varOcc
}

// blockRef is one relevant block: its ID and its relation.
type blockRef struct {
	bid, rel string
}

// Decompose partitions (q, d) as described in the package comment.
// maxShards, when positive, caps the number of data shards per query
// component: co-occurrence components are then packed into at most maxShards
// groups, largest-first onto the least-loaded group, which balances shard
// sizes for the worker pool. maxShards ≤ 0 keeps one shard per component
// (maximum parallelism). Query components containing a self-join are never
// data-sharded (two facts of one relation can co-occur in an embedding
// without sharing any value, so the co-occurrence graph argument needs
// self-join-freedom); they come back as a single shard.
//
// Decompose computes the partition only; Shard builds a shard's database.
// The union-find runs over blocks, numbered by the relations' block
// ordinals, and links them through (variable, value) pairs, so it builds no
// string per fact.
func Decompose(q cq.Query, d *db.DB, maxShards int) *Decomposition {
	decomposeTotal.Inc()
	dec := &Decomposition{Query: q, d: d}

	// Query components, and each relation's component. A variable occurs in
	// exactly one component, so the per-variable buckets below can never link
	// facts across components; relations are unique per component for
	// self-join-free queries, and self-joining components opt out of data
	// sharding anyway.
	comps := q.ConnectedComponents()
	selfJoin := make([]bool, len(comps))
	rels := make(map[string]*relPart)
	var order []*relPart // relations in query order
	for j, comp := range comps {
		atoms := make([]cq.Atom, len(comp))
		for i, idx := range comp {
			atoms[i] = q.Atoms[idx]
		}
		sub := cq.Query{Atoms: atoms}
		dec.Components = append(dec.Components, sub)
		selfJoin[j] = sub.HasSelfJoin()
		for _, a := range atoms {
			if rp := rels[a.Rel]; rp != nil {
				rp.comp = j
				continue
			}
			rp := &relPart{name: a.Rel, comp: j}
			rp.ords, rp.bids = d.BlockOrdinals(a.Rel)
			rels[a.Rel] = rp
			order = append(order, rp)
		}
	}

	// Occurrences of multi-occurrence variables, by relation: a variable
	// occurring once cannot link two facts. Variables are numbered in q's
	// order.
	occCount := make(map[string]int)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				occCount[t.Value]++
			}
		}
	}
	varNum := make(map[string]int32)
	for _, a := range q.Atoms {
		for pos, t := range a.Args {
			if !t.IsVar() || occCount[t.Value] < 2 {
				continue
			}
			v, ok := varNum[t.Value]
			if !ok {
				v = int32(len(varNum))
				varNum[t.Value] = v
			}
			rels[a.Rel].occs = append(rels[a.Rel].occs, varOcc{v: v, pos: pos})
		}
	}

	// Number the relevant blocks and size the bucket map.
	var nBlocks int32
	nOccs := 0
	for _, rp := range order {
		rp.base = nBlocks
		nBlocks += int32(len(rp.bids))
		nOccs += len(rp.ords) * len(rp.occs)
	}
	relOf := make([]*relPart, nBlocks) // relation of each block element
	for _, rp := range order {
		for o := range rp.bids {
			relOf[rp.base+int32(o)] = rp
		}
	}
	parent := make([]int32, nBlocks)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}

	// One union-find pass over the facts. Facts of one block share their
	// element, and blocks are linked through the (variable, value) buckets.
	// A relation's facts come in the global order, so a per-relation counter
	// locates each fact's block ordinal. Facts of irrelevant relations drop
	// out; their block sizes are read from the ordinals below.
	facts := d.Facts()
	elem := make([]int32, len(facts)) // block element of each fact; -1 irrelevant
	buckets := make(map[bucketKey]int32, nOccs)
	for i, f := range facts {
		rp := rels[f.Rel]
		if rp == nil {
			elem[i] = -1
			continue
		}
		e := rp.base + rp.ords[rp.next]
		rp.next++
		elem[i] = e
		for _, oc := range rp.occs {
			if oc.pos >= len(f.Args) {
				continue // arity mismatch with the query; the fact matches no atom
			}
			k := bucketKey{v: oc.v, val: f.Args[oc.pos]}
			if first, seen := buckets[k]; seen {
				parent[find(e)] = find(first)
			} else {
				buckets[k] = e
			}
		}
	}
	for _, name := range d.Relations() {
		if rels[name] != nil {
			continue
		}
		ords, bids := d.BlockOrdinals(name)
		base := len(dec.IrrelevantBlocks)
		dec.IrrelevantBlocks = append(dec.IrrelevantBlocks, make([]int, len(bids))...)
		for _, o := range ords {
			dec.IrrelevantBlocks[base+int(o)]++
		}
	}
	sort.Ints(dec.IrrelevantBlocks)

	// Collect co-occurrence components per query component, ordered by first
	// fact index so the decomposition is deterministic for a given database.
	// elem is rewritten to each fact's co-occurrence component.
	cocompOf := make([]int32, nBlocks) // by union-find root; -1 unseen
	for i := range cocompOf {
		cocompOf[i] = -1
	}
	var cocomps []cocomp
	perComp := make([][]int, len(comps)) // query comp -> its cocomp indexes in first-fact order
	for i, e := range elem {
		if e < 0 {
			continue
		}
		r := find(e)
		ci := cocompOf[r]
		if ci < 0 {
			ci = int32(len(cocomps))
			cocompOf[r] = ci
			cocomps = append(cocomps, cocomp{first: i})
			comp := relOf[e].comp
			perComp[comp] = append(perComp[comp], int(ci))
		}
		cocomps[ci].size++
		elem[i] = ci
	}

	// Pack each query component's co-occurrence components into shard groups
	// and assign every group a global index.
	groupOf := make([]int, len(cocomps))
	totalGroups := 0
	groupsPer := make([]int, len(comps))
	for j, cis := range perComp {
		want := len(cis)
		if selfJoin[j] || (maxShards > 0 && want > maxShards) {
			want = maxShards
			if selfJoin[j] {
				want = 1
			}
		}
		if want < 1 && len(cis) > 0 {
			want = len(cis)
		}
		groupsPer[j] = assignGroups(cis, cocomps, groupOf, want, totalGroups)
		totalGroups += groupsPer[j]
	}

	// Each group's fact indexes, in insertion order, and its blocks, sorted
	// by ID so the fingerprints are insertion-order independent. A block
	// lies entirely within one co-occurrence component, so its group is its
	// union-find root's. Both lists are laid out in one backing array each.
	factStart := make([]int, totalGroups+1)
	for ci, c := range cocomps {
		factStart[groupOf[ci]+1] += c.size
	}
	blockStart := make([]int, totalGroups+1)
	for e := range relOf {
		blockStart[groupOf[cocompOf[find(int32(e))]]+1]++
	}
	for g := 0; g < totalGroups; g++ {
		factStart[g+1] += factStart[g]
		blockStart[g+1] += blockStart[g]
	}
	idxs := make([]int, factStart[totalGroups])
	next := append([]int(nil), factStart[:totalGroups]...)
	for i, ci := range elem {
		if ci < 0 {
			continue
		}
		g := groupOf[ci]
		idxs[next[g]] = i
		next[g]++
	}
	refs := make([]blockRef, nBlocks)
	copy(next, blockStart[:totalGroups])
	for e, rp := range relOf {
		g := groupOf[cocompOf[find(int32(e))]]
		refs[next[g]] = blockRef{bid: rp.bids[int32(e)-rp.base], rel: rp.name}
		next[g]++
	}
	bids := make([]string, nBlocks)
	bidRels := make([]string, nBlocks)
	for g := 0; g < totalGroups; g++ {
		grp := refs[blockStart[g]:blockStart[g+1]]
		if len(grp) > 1 {
			slices.SortFunc(grp, func(a, b blockRef) int { return strings.Compare(a.bid, b.bid) })
		}
		for k, ref := range grp {
			bids[blockStart[g]+k] = ref.bid
			bidRels[blockStart[g]+k] = ref.rel
		}
	}

	dec.FactIndexes = make([][][]int, len(comps))
	dec.Blocks = make([][][]string, len(comps))
	dec.blockRels = make([][][]string, len(comps))
	g := 0
	for j := range comps {
		dec.FactIndexes[j] = make([][]int, groupsPer[j])
		dec.Blocks[j] = make([][]string, groupsPer[j])
		dec.blockRels[j] = make([][]string, groupsPer[j])
		for i := range groupsPer[j] {
			f0, f1 := factStart[g], factStart[g+1]
			b0, b1 := blockStart[g], blockStart[g+1]
			dec.FactIndexes[j][i] = idxs[f0:f1:f1]
			dec.Blocks[j][i] = bids[b0:b1:b1]
			dec.blockRels[j][i] = bidRels[b0:b1:b1]
			g++
		}
	}
	instancesTotal.Add(uint64(totalGroups))
	return dec
}

// cocomp is one connected component of the fact co-occurrence graph: the
// index of its first fact (for deterministic ordering) and its fact count
// (for balanced packing).
type cocomp struct {
	first int
	size  int
}

// assignGroups packs the co-occurrence components cis into at most want
// groups (longest-processing-time greedy: components sorted by size
// descending, ties broken by first fact index, each placed on the currently
// lightest group). It writes base-offset group numbers into groupOf and
// returns how many groups were used.
func assignGroups(cis []int, cocomps []cocomp, groupOf []int, want, base int) int {
	if len(cis) == 0 {
		return 0
	}
	if want >= len(cis) {
		// One group per component, in first-fact order.
		for g, ci := range cis {
			groupOf[ci] = base + g
		}
		return len(cis)
	}
	order := make([]int, len(cis))
	copy(order, cis)
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cocomps[order[a]], cocomps[order[b]]
		if ca.size != cb.size {
			return ca.size > cb.size
		}
		return ca.first < cb.first
	})
	load := make([]int, want)
	for _, ci := range order {
		g := 0
		for k := 1; k < want; k++ {
			if load[k] < load[g] {
				g = k
			}
		}
		load[g] += cocomps[ci].size
		groupOf[ci] = base + g
	}
	return want
}
