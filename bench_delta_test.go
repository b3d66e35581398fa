package certainty

// Delta re-solve: the per-request work of a hosted solve right after a
// one-block write. The database is a disjoint union of chain components;
// the write touches one block, so the memoized re-solve recomputes one
// shard and reuses the sub-verdicts of all the others.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/solver"
)

// deltaComponents is the component count of the delta re-solve instance,
// the size of the hosted database of the end-to-end benchmark.
const deltaComponents = 1024

// deltaInstance is a memo-warmed delta re-solve instance: component i holds
// the R block {R(a_i | b_i), R(a_i | b_i')} and the S block
// {S(b_i | c_i), S(b_i | c_i')}, so no component is certain and every shard
// is solved and memoized by the warming solve.
type deltaInstance struct {
	p       *solver.Plan
	d       *db.DB
	memo    *solver.ShardMemo
	toggle  db.Fact
	present bool
}

func newDeltaInstance(tb testing.TB) *deltaInstance {
	tb.Helper()
	facts := make([]db.Fact, 0, 4*deltaComponents)
	for i := 0; i < deltaComponents; i++ {
		a, b, b2 := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("b%d'", i)
		facts = append(facts,
			db.NewFact("R", 1, a, b), db.NewFact("R", 1, a, b2),
			db.NewFact("S", 1, b, fmt.Sprintf("c%d", i)), db.NewFact("S", 1, b, fmt.Sprintf("c%d'", i)))
	}
	p, err := solver.CompilePlan(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		tb.Fatal(err)
	}
	in := &deltaInstance{
		p:      p,
		d:      db.MustFromFacts(facts...),
		memo:   solver.NewShardMemo(0, nil),
		toggle: db.NewFact("S", 1, "b0", "ctoggle"),
	}
	if _, _, err := p.SolveShardedMemo(context.Background(), in.d, 0, solver.Options{}, in.memo); err != nil {
		tb.Fatal(err)
	}
	return in
}

// write applies one block toggle the way the hosted store does: clone the
// published snapshot, then insert or delete one fact of component 0's S
// block on the clone.
func (in *deltaInstance) write(tb testing.TB) solver.Delta {
	in.d = in.d.Clone()
	in.present = !in.present
	if in.present {
		if err := in.d.Add(in.toggle); err != nil {
			tb.Fatal(err)
		}
		return solver.Delta{Ins: []db.Fact{in.toggle}}
	}
	in.d.Remove(in.toggle)
	return solver.Delta{Del: []db.Fact{in.toggle}}
}

// resolve re-solves after a write and checks that exactly one shard was
// recomputed.
func (in *deltaInstance) resolve(tb testing.TB, dl solver.Delta) {
	v, rep, err := in.p.Resolve(context.Background(), in.d, dl, in.memo, 0, solver.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if v.Outcome != solver.OutcomeNotCertain || rep.ShardsRecomputed != 1 {
		tb.Fatalf("resolve: outcome %v, report %+v; want not certain with one shard recomputed", v.Outcome, rep)
	}
}

// BenchmarkDeltaResolve times one Plan.Resolve after a one-block write on
// 1024 chain components. The clone and the write are outside the timer.
func BenchmarkDeltaResolve(b *testing.B) {
	in := newDeltaInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dl := in.write(b)
		b.StartTimer()
		in.resolve(b, dl)
	}
}

// TestDeltaResolveAllocRegression pins the allocations of one one-block
// Resolve on 1024 chain components. A delta re-solve builds only the shard
// it recomputes and decomposes without a string per fact, so the ceiling
// sits far below what building every shard's database costs (about 58,700
// allocations): bringing back an eager shard build breaks it.
func TestDeltaResolveAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ceiling = 15000
	in := newDeltaInstance(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		dl := in.write(t)
		runtime.ReadMemStats(&before)
		in.resolve(t, dl)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	allocs := total / runs
	t.Logf("delta resolve allocs/op: %d", allocs)
	if allocs > ceiling {
		t.Fatalf("one-block Resolve allocates %d/op, above the %d ceiling", allocs, ceiling)
	}
}
