package certainty

// Polynomial non-FO solves: Theorem 3 (terminal weak cycles), Theorem 4
// (AC(k)) and Corollary 1 (C(k)) on instances of the size the mixed-class
// workload of the end-to-end benchmark draws. Each solve starts from a
// freshly parsed database, as an inline request does, so the interned view
// is built inside the solve.

import (
	"context"
	"runtime"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/solver"
)

// polyInstances is the number of instances per family, as in mixed-class.
const polyInstances = 48

type polyFamily struct {
	name string
	q    cq.Query
	cfg  gen.Config
}

func polyFamilies() []polyFamily {
	return []polyFamily{
		{"terminal", gen.TerminalPairsQuery(2, true), gen.Config{Embeddings: 4, Noise: 1, Domain: 3}},
		{"ack3", cq.ACk(3), gen.Config{Embeddings: 4, Noise: 3, Domain: 4}},
		{"c3", cq.Ck(3), gen.Config{Embeddings: 4, Noise: 3, Domain: 4}},
	}
}

// polyCorpus compiles the family's plan and renders its instances as DB
// text.
func polyCorpus(tb testing.TB, f polyFamily) (*solver.Plan, []string) {
	tb.Helper()
	p, err := solver.CompilePlan(f.q)
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, polyInstances)
	for i := range texts {
		texts[i] = gen.RandomDB(f.q, f.cfg, int64(i+1)).String()
	}
	return p, texts
}

func polySolve(tb testing.TB, p *solver.Plan, d *db.DB) {
	v, err := p.SolveCtx(context.Background(), d, solver.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if v.Outcome == solver.OutcomeUnknown {
		tb.Fatalf("unlimited solve came back unknown: %v", v.Err)
	}
}

// BenchmarkPolySolve times one Plan.SolveCtx per op, cycling through the
// family's instances; parsing runs outside the timer.
func BenchmarkPolySolve(b *testing.B) {
	for _, f := range polyFamilies() {
		b.Run(f.name, func(b *testing.B) {
			p, texts := polyCorpus(b, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := db.MustParse(texts[i%len(texts)])
				b.StartTimer()
				polySolve(b, p, d)
			}
		})
	}
}

// TestPolySolveAllocRegression pins the allocations of one polynomial
// solve, averaged over the family's instances. Purification marks fact
// masks over the request's one interned view, and Theorem 3's recursion
// skeleton is compiled into the plan, so the ceilings sit far below what a
// database per purification round and an attack graph per recursion node
// cost (about 3,200 allocations for terminal, 510 for AC(3), 480 for C(3)).
func TestPolySolveAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ceilings := map[string]uint64{"terminal": 600, "ack3": 256, "c3": 240}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, f := range polyFamilies() {
		p, texts := polyCorpus(t, f)
		for _, text := range texts { // warm the pools
			polySolve(t, p, db.MustParse(text))
		}
		var total uint64
		var before, after runtime.MemStats
		for _, text := range texts {
			d := db.MustParse(text)
			runtime.ReadMemStats(&before)
			polySolve(t, p, d)
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		allocs := total / uint64(len(texts))
		t.Logf("%s solve allocs/op: %d", f.name, allocs)
		if allocs > ceilings[f.name] {
			t.Errorf("%s solve allocates %d/op, above the %d ceiling", f.name, allocs, ceilings[f.name])
		}
	}
}
