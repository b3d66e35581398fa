package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// refShard is one shard of the reference partition: its facts in the
// parent's insertion order and its sorted block IDs.
type refShard struct {
	facts []db.Fact
	bids  []string
}

// referencePartition is the eager partition Decompose computed before
// shards were built on demand: a union-find over facts keyed by BlockID
// strings and "variable NUL value" strings, co-occurrence components in
// first-fact order, packed by assignGroups, each shard's facts collected in
// one scan. It returns the shards per query component and the sorted
// irrelevant block sizes.
func referencePartition(q cq.Query, d *db.DB, maxShards int) ([][]refShard, []int) {
	comps := q.ConnectedComponents()
	relComp := map[string]int{}
	selfJoin := make([]bool, len(comps))
	for j, comp := range comps {
		var atoms []cq.Atom
		for _, idx := range comp {
			atoms = append(atoms, q.Atoms[idx])
		}
		selfJoin[j] = cq.Query{Atoms: atoms}.HasSelfJoin()
		for _, a := range atoms {
			relComp[a.Rel] = j
		}
	}
	occCount := map[string]int{}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				occCount[t.Value]++
			}
		}
	}
	type occ struct {
		v   string
		pos int
	}
	relOccs := map[string][]occ{}
	for _, a := range q.Atoms {
		for pos, t := range a.Args {
			if t.IsVar() && occCount[t.Value] > 1 {
				relOccs[a.Rel] = append(relOccs[a.Rel], occ{t.Value, pos})
			}
		}
	}

	facts := d.Facts()
	parent := make([]int, len(facts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	irrelevant := map[string]int{}
	first := map[string]int{}
	for i, f := range facts {
		if _, ok := relComp[f.Rel]; !ok {
			irrelevant[f.BlockID()]++
			continue
		}
		keys := []string{"block\x00" + f.BlockID()}
		for _, o := range relOccs[f.Rel] {
			if o.pos < len(f.Args) {
				keys = append(keys, o.v+"\x00"+f.Args[o.pos])
			}
		}
		for _, k := range keys {
			if g, ok := first[k]; ok {
				parent[find(i)] = find(g)
			} else {
				first[k] = i
			}
		}
	}

	rootCo := map[int]int{}
	var cocomps []cocomp
	perComp := make([][]int, len(comps))
	cocompOf := make([]int, len(facts))
	for i, f := range facts {
		j, ok := relComp[f.Rel]
		if !ok {
			cocompOf[i] = -1
			continue
		}
		ci, seen := rootCo[find(i)]
		if !seen {
			ci = len(cocomps)
			rootCo[find(i)] = ci
			cocomps = append(cocomps, cocomp{first: i})
			perComp[j] = append(perComp[j], ci)
		}
		cocomps[ci].size++
		cocompOf[i] = ci
	}
	groupOf := make([]int, len(cocomps))
	total := 0
	groupsPer := make([]int, len(comps))
	for j, cis := range perComp {
		want := len(cis)
		if selfJoin[j] {
			want = 1
		} else if maxShards > 0 && want > maxShards {
			want = maxShards
		}
		groupsPer[j] = assignGroups(cis, cocomps, groupOf, want, total)
		total += groupsPer[j]
	}
	groups := make([]refShard, total)
	seenBlock := map[string]bool{}
	for i, f := range facts {
		if cocompOf[i] < 0 {
			continue
		}
		g := &groups[groupOf[cocompOf[i]]]
		g.facts = append(g.facts, f)
		if bid := f.BlockID(); !seenBlock[bid] {
			seenBlock[bid] = true
			g.bids = append(g.bids, bid)
		}
	}
	for _, g := range groups {
		sort.Strings(g.bids)
	}
	out := make([][]refShard, len(comps))
	base := 0
	for j := range comps {
		out[j] = groups[base : base+groupsPer[j]]
		base += groupsPer[j]
	}
	var sizes []int
	for _, n := range irrelevant {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return out, sizes
}

// lazyCase is one (query, database) instance of the differential test.
type lazyCase struct {
	name string
	q    cq.Query
	d    *db.DB
}

// lazyCases covers every certgen family (conference, figure6, random,
// cycle, q0), random acyclic queries over random data with a noise
// relation, a self-join, a multi-component query, an arity mismatch
// between query and data, and databases reached through Clone, Add and
// Remove rather than one load.
func lazyCases() []lazyCase {
	cases := []lazyCase{
		{"conference", cq.ConferenceQuery(), gen.ConferenceDB()},
		{"figure6", cq.ACk(3), gen.Figure6DB()},
		{"cycle", cq.ACk(3), gen.CycleDB(gen.CycleConfig{K: 3, Components: 6, Width: 2})},
		{"cycle-c3", cq.Ck(3), gen.CycleDB(gen.CycleConfig{K: 3, Components: 5, Width: 2, SkipSk: true})},
		{"q0", cq.Q0(), gen.Q0DB(12, 2, 5, 3)},
		{"q1", cq.Q1(), gen.RandomDB(cq.Q1(), gen.Config{Embeddings: 10, Noise: 10, Domain: 5}, 4)},
		{"self-join", cq.MustParseQuery("R(x | y), R(y | z)"), db.MustParse(`R(a | b) R(c | d) R(e | f) R(a | g)`)},
		{"arity-mismatch", cq.MustParseQuery("R(x | y), S(y | z)"), db.MustParse(`R(a | b) S(b | c, d) S(e | f, g) R(h | e)`)},
	}
	for seed := int64(0); seed < 6; seed++ {
		q := gen.RandomAcyclicQuery(seed, 4)
		d := gen.RandomDB(q, gen.Config{Embeddings: 12, Noise: 12, Domain: 4}, seed)
		for k := 0; k < 5; k++ {
			_ = d.Add(db.Fact{Rel: "Noise", KeyLen: 1, Args: []string{fmt.Sprint(k % 3), fmt.Sprint(k)}})
		}
		cases = append(cases, lazyCase{fmt.Sprintf("random%d", seed), q, d})
	}
	multi := cq.MustParseQuery("R(x | y), S(y | z), U(u | v)")
	cases = append(cases, lazyCase{"multi-component", multi,
		gen.RandomDB(multi, gen.Config{Embeddings: 10, Noise: 8, Domain: 4}, 9)})

	// Mutations after a clone: the block ordinals are maintained by Add and
	// Remove, not laid out by a load.
	chain := cq.MustParseQuery("R(x | y), S(y | z)")
	base := gen.RandomDB(chain, gen.Config{Embeddings: 10, Noise: 10, Domain: 4}, 11)
	mut := base.Clone()
	r := rand.New(rand.NewSource(5))
	for step := 0; step < 20; step++ {
		facts := mut.Facts()
		if len(facts) > 0 && r.Intn(2) == 0 {
			mut.Remove(facts[r.Intn(len(facts))])
			continue
		}
		rel := []string{"R", "S"}[r.Intn(2)]
		_ = mut.Add(db.Fact{Rel: rel, KeyLen: 1, Args: []string{fmt.Sprint("m", r.Intn(5)), fmt.Sprint("m", r.Intn(5))}})
	}
	return append(cases, lazyCase{"mutated", chain, mut})
}

// shuffled rebuilds d's facts in a random order.
func shuffled(d *db.DB, seed int64) *db.DB {
	facts := append([]db.Fact(nil), d.Facts()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	return db.MustFromFacts(facts...)
}

// factIDs renders a fact list for comparison.
func factIDs(facts []db.Fact) []string {
	ids := make([]string, len(facts))
	for i, f := range facts {
		ids[i] = f.ID()
	}
	return ids
}

// TestLazyShardsMatchEagerPartition is the differential test of the lazy
// decomposition against the eager reference partition, across the cases
// above, shard caps {0, 1, 2, NumCPU} and fact shuffles: every shard's
// fact indexes and block IDs, the database Shard builds (the same facts in
// insertion order, the same blocks and the same digest as Restrict to the
// shard's facts), the irrelevant block sizes, and the fingerprints, which
// must equal db.HashParts over the reference parts.
func TestLazyShardsMatchEagerPartition(t *testing.T) {
	for _, tc := range lazyCases() {
		for shuffle := int64(0); shuffle < 3; shuffle++ {
			d := tc.d
			if shuffle > 0 {
				d = shuffled(tc.d, shuffle)
			}
			for _, maxShards := range []int{0, 1, 2, runtime.NumCPU()} {
				what := fmt.Sprintf("%s/shuffle%d/max%d", tc.name, shuffle, maxShards)
				checkAgainstReference(t, what, tc.q, d, maxShards)
			}
		}
	}
}

func checkAgainstReference(t *testing.T, what string, q cq.Query, d *db.DB, maxShards int) {
	t.Helper()
	ref, irrelevant := referencePartition(q, d, maxShards)
	dec := Decompose(q, d, maxShards)
	if !slices.Equal(dec.IrrelevantBlocks, irrelevant) {
		t.Errorf("%s: IrrelevantBlocks = %v, want %v", what, dec.IrrelevantBlocks, irrelevant)
	}
	if len(dec.FactIndexes) != len(ref) || len(dec.Blocks) != len(ref) {
		t.Fatalf("%s: %d/%d components, want %d", what, len(dec.FactIndexes), len(dec.Blocks), len(ref))
	}
	for j, shards := range ref {
		if len(dec.FactIndexes[j]) != len(shards) || len(dec.Blocks[j]) != len(shards) {
			t.Fatalf("%s: component %d has %d shards, want %d", what, j, len(dec.FactIndexes[j]), len(shards))
		}
		key := cq.CanonicalKey(dec.Components[j])
		fps := dec.ComponentFingerprints(d, j)
		for i, want := range shards {
			var got []db.Fact
			for _, k := range dec.FactIndexes[j][i] {
				got = append(got, d.Facts()[k])
			}
			if !slices.Equal(factIDs(got), factIDs(want.facts)) {
				t.Errorf("%s: shard %d/%d facts = %v, want %v", what, j, i, got, want.facts)
			}
			if !slices.Equal(dec.Blocks[j][i], want.bids) {
				t.Errorf("%s: shard %d/%d blocks = %q, want %q", what, j, i, dec.Blocks[j][i], want.bids)
			}

			in := map[string]bool{}
			for _, f := range want.facts {
				in[f.ID()] = true
			}
			restricted := d.Restrict(func(f db.Fact) bool { return in[f.ID()] })
			built := dec.Shard(j, i)
			if !slices.Equal(factIDs(built.Facts()), factIDs(restricted.Facts())) {
				t.Errorf("%s: Shard(%d, %d) facts = %v, want %v", what, j, i, built.Facts(), restricted.Facts())
			}
			if got, want := fmt.Sprint(built.Blocks()), fmt.Sprint(restricted.Blocks()); got != want {
				t.Errorf("%s: Shard(%d, %d) blocks = %s, want %s", what, j, i, got, want)
			}
			if built.Digest() != restricted.Digest() {
				t.Errorf("%s: Shard(%d, %d) digest differs from Restrict's", what, j, i)
			}

			parts := []string{key}
			for _, bid := range want.bids {
				rel := ""
				for _, f := range want.facts {
					if f.BlockID() == bid {
						rel = f.Rel
					}
				}
				parts = append(parts, bid, d.BlockDigests(rel)[bid])
			}
			if fps[i] != db.HashParts(parts) {
				t.Errorf("%s: shard %d/%d fingerprint %s, want HashParts %s", what, j, i, fps[i], db.HashParts(parts))
			}
		}
	}
}
