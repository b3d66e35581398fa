package solver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/jointree"
)

// terminalSkeletonQueries returns Theorem 3 queries of every shape the
// skeleton compiles: chained weak pairs with and without an unattacked
// root, the three-cycle query, and random queries classified
// ptime-terminal.
func terminalSkeletonQueries(t *testing.T) []cq.Query {
	t.Helper()
	var qs []cq.Query
	for n := 1; n <= 3; n++ {
		qs = append(qs, gen.TerminalPairsQuery(n, false), gen.TerminalPairsQuery(n, true))
	}
	qs = append(qs, cq.TerminalCyclesQuery())
	random := 0
	for seed := int64(0); seed < 2000 && random < 40; seed++ {
		q := randomTerminalCandidate(rand.New(rand.NewSource(seed)))
		if cls, err := core.Classify(q); err == nil && cls.Class == core.ClassPTimeTerminal {
			qs = append(qs, q)
			random++
		}
	}
	if random < 20 {
		t.Fatalf("found only %d random ptime-terminal queries", random)
	}
	return qs
}

// randomTerminalCandidate draws a self-join-free query built like the
// Theorem 3 families: one to three pairs Fi(links, ui | vi[, ei]),
// Gi(links, vi | ui) whose keys share random link variables, plus up to two
// atoms hanging off the links (unattacked roots or FO tails) and the odd
// constant. Most draws classify ptime-terminal; the caller filters.
func randomTerminalCandidate(r *rand.Rand) cq.Query {
	links := []string{"l0", "l1", "l2"}
	pick := func() []cq.Term {
		var out []cq.Term
		for _, l := range links {
			if r.Intn(3) == 0 {
				out = append(out, cq.Var(l))
			}
		}
		return out
	}
	var atoms []cq.Atom
	pairs := 1 + r.Intn(3)
	for i := 0; i < pairs; i++ {
		u, v := cq.Var(fmt.Sprintf("u%d", i)), cq.Var(fmt.Sprintf("v%d", i))
		key := pick()
		if r.Intn(5) == 0 {
			key = append(key, cq.Const("k"))
		}
		fArgs := append(append(slices.Clone(key), u), v)
		if r.Intn(3) == 0 {
			fArgs = append(fArgs, cq.Var(fmt.Sprintf("e%d", i)))
		}
		gArgs := append(append(slices.Clone(key), v), u)
		atoms = append(atoms,
			cq.Atom{Rel: fmt.Sprintf("F%d", i), KeyLen: len(key) + 1, Args: fArgs},
			cq.Atom{Rel: fmt.Sprintf("G%d", i), KeyLen: len(key) + 1, Args: gArgs})
	}
	for j := r.Intn(3); j > 0; j-- {
		args := []cq.Term{cq.Var(fmt.Sprintf("w%d", j))}
		if r.Intn(2) == 0 {
			args = []cq.Term{cq.Var(links[r.Intn(len(links))])}
		}
		args = append(args, cq.Var(links[r.Intn(len(links))]))
		atoms = append(atoms, cq.Atom{Rel: fmt.Sprintf("R%d", j), KeyLen: 1, Args: args})
	}
	r.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	return cq.Query{Atoms: atoms}
}

// TestTerminalSkeletonMatchesAttackGraph checks the compiled Theorem 3
// skeleton against the attack graph core.BuildAttackGraph derives at every
// recursion depth on the residual query with its bound variables replaced
// by constants — under two different substitutions, since the skeleton
// claims the constants do not matter: the eliminated unattacked atom, the
// bound variables, the base case's 2-cycles, their shared variables and
// their signature variables.
func TestTerminalSkeletonMatchesAttackGraph(t *testing.T) {
	substitutions := []func(v string) string{
		func(v string) string { return "c_" + v }, // a distinct constant per variable
		func(string) string { return "k" },        // one constant for all
	}
	for _, q := range terminalSkeletonQueries(t) {
		sk := compileTerminal(q)
		for si, subst := range substitutions {
			atoms := make([]int, q.Len())
			for i := range atoms {
				atoms[i] = i
			}
			bound := make(cq.VarSet)
			for l, lv := range sk.levels {
				got := slices.Clone(lv.bound)
				slices.Sort(got)
				if want := bound.Sorted(); !sameStrings(got, want) {
					t.Fatalf("%v level %d: bound %v, want %v", q, l, got, want)
				}
				theta := make(cq.Valuation)
				for v := range bound {
					theta[v] = subst(v)
				}
				var residual cq.Query
				for _, ai := range atoms {
					residual.Atoms = append(residual.Atoms, q.Atoms[ai].Substitute(theta))
				}
				if len(atoms) == 0 {
					if l != len(sk.levels)-1 || lv.elim != -1 || lv.err != nil {
						t.Fatalf("%v: empty residual at level %d is not the last, error-free level", q, l)
					}
					break
				}
				if lv.err != nil {
					t.Fatalf("%v level %d (substitution %d): unexpected skeleton error %v", q, l, si, lv.err)
				}
				g, err := core.BuildAttackGraph(residual, jointree.TieBreakLex)
				if err != nil {
					t.Fatal(err)
				}
				if !g.AllCyclesWeakAndTerminal() {
					t.Fatalf("%v level %d: residual %v violates Theorem 3's hypothesis", q, l, residual)
				}
				if un := g.Unattacked(); len(un) > 0 {
					if lv.elim != atoms[un[0]] {
						t.Fatalf("%v level %d: skeleton eliminates atom %d, attack graph of %v says %d", q, l, lv.elim, residual, atoms[un[0]])
					}
					bound.AddAll(q.Atoms[lv.elim].Vars())
					atoms = slices.DeleteFunc(atoms, func(ai int) bool { return ai == lv.elim })
					continue
				}
				if lv.elim != -1 {
					t.Fatalf("%v level %d: skeleton eliminates %d where the attack graph has no unattacked atom", q, l, lv.elim)
				}
				checkBaseCycles(t, q, sk, lv, residual, atoms, g)
				if l != len(sk.levels)-1 {
					t.Fatalf("%v: base case at level %d is not the last level", q, l)
				}
				break
			}
		}
	}
}

// checkBaseCycles compares the skeleton's base case with the residual's
// attack graph.
func checkBaseCycles(t *testing.T, q cq.Query, sk *terminalSkeleton, lv termLevel, residual cq.Query, atoms []int, g *core.AttackGraph) {
	t.Helper()
	cycles := g.TerminalWeakCycles()
	if len(cycles) != len(lv.cycles) {
		t.Fatalf("%v: skeleton has %d base cycles, attack graph %d", q, len(lv.cycles), len(cycles))
	}
	names := func(slots []int) []string {
		out := make([]string, len(slots))
		for i, s := range slots {
			out[i] = sk.vars[s]
		}
		return out
	}
	for i, c := range cycles {
		tc := lv.cycles[i]
		if tc.atoms != [2]int{atoms[c.F], atoms[c.G]} {
			t.Fatalf("%v: base cycle %d is atoms %v, attack graph says %v", q, i, tc.atoms, [2]int{atoms[c.F], atoms[c.G]})
		}
		F, G := residual.Atoms[c.F], residual.Atoms[c.G]
		mine := F.Vars().Union(G.Vars())
		shared := make(cq.VarSet)
		for j, o := range cycles {
			if j != i {
				shared.AddAll(mine.Intersect(residual.Atoms[o.F].Vars().Union(residual.Atoms[o.G].Vars())))
			}
		}
		if got, want := names(tc.key[:tc.sigOff]), shared.Sorted(); !sameStrings(got, want) {
			t.Fatalf("%v: base cycle %d shares %v, want %v", q, i, got, want)
		}
		if got, want := names(tc.key[tc.sigOff:]), F.Vars().Intersect(G.Vars()).Sorted(); !sameStrings(got, want) {
			t.Fatalf("%v: base cycle %d signature %v, want %v", q, i, got, want)
		}
	}
}

func sameStrings(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b))
}

// terminalFuzzQuery is the mixed-class Theorem 3 query: an unattacked root
// R0(w | l0) above two chained weak pairs.
func terminalFuzzQuery() cq.Query { return gen.TerminalPairsQuery(2, true) }

// decodeTerminalDB turns fuzz bytes into a small database over the
// relations of terminalFuzzQuery: per fact one byte picks the relation,
// then one byte per argument picks a constant from a three-value domain.
func decodeTerminalDB(data []byte) *db.DB {
	q := terminalFuzzQuery()
	d := db.New()
	for len(data) > 0 && d.Len() < 24 {
		a := q.Atoms[int(data[0])%q.Len()]
		data = data[1:]
		if len(data) < len(a.Args) {
			break
		}
		args := make([]string, len(a.Args))
		for i := range args {
			args[i] = string(rune('a' + data[i]%3))
		}
		data = data[len(a.Args):]
		_ = d.Add(db.NewFact(a.Rel, a.KeyLen, args...))
	}
	return d
}

// encodeTerminalDB encodes a database over the query's relations for
// decodeTerminalDB, folding each constant onto the domain by its last
// byte.
func encodeTerminalDB(d *db.DB) []byte {
	q := terminalFuzzQuery()
	var out []byte
	for _, f := range d.Facts() {
		for ai, a := range q.Atoms {
			if a.Rel == f.Rel {
				out = append(out, byte(ai))
			}
		}
		for _, v := range f.Args {
			out = append(out, v[len(v)-1])
		}
	}
	return out
}

// FuzzTerminal compares the compiled Theorem 3 solve with brute-force
// repair enumeration on every decoded database with at most 4096 repairs.
// The corpus is seeded with random instances of the query (their
// constants folded onto the three-value domain).
func FuzzTerminal(f *testing.F) {
	q := terminalFuzzQuery()
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(encodeTerminalDB(gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 1, Domain: 3}, seed)))
	}
	p, err := CompilePlan(q)
	if err != nil {
		f.Fatal(err)
	}
	if p.Method != MethodTerminal {
		f.Fatalf("plan method %v, want terminal", p.Method)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeTerminalDB(data)
		if !d.NumRepairs().IsInt64() || d.NumRepairs().Int64() > 4096 {
			return
		}
		v, err := p.SolveCtx(context.Background(), d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := BruteForce(q, d); v.Result.Certain != want {
			t.Fatalf("plan says certain=%v, brute force %v on\n%s", v.Result.Certain, want, d)
		}
	})
}

// TestTerminalPlanConcurrentSolves shares one compiled Theorem 3 plan — its
// skeleton and the pooled engine buffers — between goroutines solving
// different databases; every verdict must match the sequential one.
func TestTerminalPlanConcurrentSolves(t *testing.T) {
	q := terminalFuzzQuery()
	p, err := CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*db.DB, 24)
	want := make([]bool, len(dbs))
	for i := range dbs {
		dbs[i] = gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 2, Domain: 3}, int64(i))
		if want[i], err = CertainTerminal(q, dbs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range dbs {
				i := (k + w*5) % len(dbs)
				v, err := p.SolveCtx(context.Background(), dbs[i], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if v.Result.Certain != want[i] {
					t.Errorf("db %d: concurrent plan solve says %v, sequential %v", i, v.Result.Certain, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
