package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
)

// maskFamilies pairs each certgen workload (conference, figure6, random,
// cycle with every S_k encoding, q0) with queries over it. Figure 6 under
// C(3) and the cycle database under C(3) carry an S relation outside the
// query, which purification drops in its first round.
func maskFamilies() []struct {
	name string
	q    cq.Query
	d    *db.DB
} {
	cyc := func(all, skip bool) *db.DB {
		return gen.CycleDB(gen.CycleConfig{K: 3, Components: 3, Width: 2, EncodeAll: all, SkipSk: skip})
	}
	term := gen.TerminalPairsQuery(2, true)
	chain := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	return []struct {
		name string
		q    cq.Query
		d    *db.DB
	}{
		{"conference", cq.ConferenceQuery(), gen.ConferenceDB()},
		{"figure6/ack", cq.ACk(3), gen.Figure6DB()},
		{"figure6/ck", cq.Ck(3), gen.Figure6DB()},
		{"random/terminal", term, gen.RandomDB(term, gen.Config{Embeddings: 4, Noise: 2, Domain: 3}, 7)},
		{"random/chain", chain, gen.RandomDB(chain, gen.Config{Embeddings: 6, Noise: 6, Domain: 4}, 7)},
		{"random/open", gen.OpenCaseQuery(), gen.RandomDB(gen.OpenCaseQuery(), gen.Config{Embeddings: 4, Noise: 3, Domain: 3}, 7)},
		{"cycle/all", cq.ACk(3), cyc(true, false)},
		{"cycle/aligned", cq.ACk(3), cyc(false, false)},
		{"cycle/none", cq.Ck(3), cyc(false, true)},
		{"cycle/ck-with-s", cq.Ck(3), cyc(true, false)},
		{"q0", cq.Q0(), gen.Q0DB(8, 2, 4, 7)},
	}
}

// referencePurify is purification round by round on restricted databases:
// each round enumerates the embeddings of the current database (charging
// one step per search node), drops the blocks of unused facts, and
// rebuilds the database. It returns the result and the steps charged.
func referencePurify(t *testing.T, q cq.Query, d *db.DB) (*db.DB, int64) {
	t.Helper()
	g := govern.New(context.Background(), govern.Options{})
	defer g.Close()
	ctx := g.Attach()
	cur := d
	for {
		used := make(map[string]bool)
		if _, err := EachEmbeddingCtx(ctx, q, cur, func(v cq.Valuation) bool {
			for _, a := range q.Atoms {
				if f, ok := db.FactFromAtom(a.Substitute(v)); ok {
					used[f.ID()] = true
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		drop := make(map[string]bool)
		for _, f := range cur.Facts() {
			if !used[f.ID()] {
				drop[f.BlockID()] = true
			}
		}
		if len(drop) == 0 {
			return cur, g.Steps()
		}
		cur = cur.Restrict(func(f db.Fact) bool { return !drop[f.BlockID()] })
	}
}

func relationNames(q cq.Query) []string {
	var names []string
	for _, a := range q.Atoms {
		if !slices.Contains(names, a.Rel) {
			names = append(names, a.Rel)
		}
	}
	return names
}

// firstVarBinding pre-binds q's first variable to the value it takes in
// the first fact of its atom's relation, so that the binding selects a
// nonempty part of the data.
func firstVarBinding(q cq.Query, d *db.DB) (string, string, bool) {
	for _, a := range q.Atoms {
		for pos, t := range a.Args {
			if t.IsVar() {
				if facts := d.RelationFacts(a.Rel); len(facts) > 0 {
					return t.Value, facts[0].Args[pos], true
				}
				return "", "", false
			}
		}
	}
	return "", "", false
}

func sameFacts(a, b *db.DB) bool {
	return slices.EqualFunc(a.Facts(), b.Facts(), func(x, y db.Fact) bool { return x.ID() == y.ID() }) &&
		a.Digest() == b.Digest()
}

// TestMaskPurifyMatchesReference checks the mask fixpoint against the
// string-indexed Purify and against round-by-round purification of
// restricted databases: the same kept facts in insertion order, the same
// digest, and the same governor steps, for every certgen family under
// three fact orders, with and without a pre-bound variable.
func TestMaskPurifyMatchesReference(t *testing.T) {
	for _, fam := range maskFamilies() {
		for shuffle := int64(1); shuffle <= 3; shuffle++ {
			facts := slices.Clone(fam.d.Facts())
			rand.New(rand.NewSource(shuffle)).Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
			d := db.MustFromFacts(facts...)
			name := fmt.Sprintf("%s/shuffle%d", fam.name, shuffle)

			want, wantSteps := referencePurify(t, fam.q, d)
			if !sameFacts(want, PurifyIndexed(fam.q, d)) {
				t.Fatalf("%s: round-by-round reference disagrees with PurifyIndexed", name)
			}
			g := govern.New(context.Background(), govern.Options{})
			got, err := PurifyCtx(g.Attach(), fam.q, d)
			steps := g.Steps()
			g.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !sameFacts(got, want) {
				t.Fatalf("%s: PurifyCtx kept\n%swant\n%s", name, got, want)
			}
			if steps != wantSteps {
				t.Fatalf("%s: PurifyCtx charged %d steps, round-by-round %d", name, steps, wantSteps)
			}
			if want.Len() == d.Len() && got != d {
				t.Fatalf("%s: nothing dropped, but PurifyCtx built a new database", name)
			}

			v, val, ok := firstVarBinding(fam.q, d)
			if !ok {
				continue
			}
			sub := fam.q.Substitute(cq.Valuation{v: val})
			want, wantSteps = referencePurify(t, sub, d)
			if !sameFacts(want, PurifyIndexed(sub, d)) {
				t.Fatalf("%s: bound reference disagrees with PurifyIndexed", name)
			}
			m := NewMask(d, relationNames(fam.q))
			id, _ := m.View().Syms.Lookup(val)
			g = govern.New(context.Background(), govern.Options{})
			err = PurifyMask(g, fam.q, Bound{Vars: []string{v}, IDs: []uint32{id}}, m)
			steps = g.Steps()
			g.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Subset(m.factIndexes(d)); !sameFacts(got, want) {
				t.Fatalf("%s with %s=%s: mask kept\n%swant\n%s", name, v, val, got, want)
			}
			if steps != wantSteps {
				t.Fatalf("%s with %s=%s: mask purification charged %d steps, round-by-round %d", name, v, val, steps, wantSteps)
			}
		}
	}
}
