package solver

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// CertainACkParallel is CertainACk with the per-strong-component decisions
// fanned out across workers goroutines (0 means GOMAXPROCS). Components
// are independent in the Theorem 4 algorithm, so the result is identical
// to the sequential version; the fan-out pays off on databases with many
// components.
func CertainACkParallel(q cq.Query, shape *core.CycleShape, d *db.DB, workers int) (bool, error) {
	return CertainACkParallelCtx(context.Background(), q, shape, d, workers)
}

// CertainACkParallelCtx is CertainACkParallel with cooperative
// cancellation. One component admitting no marking already decides the
// instance certain, so the first worker to find one cancels the rest:
// remaining components are skipped instead of drained. The caller's
// context cancels the fan-out the same way; its error is surfaced.
func CertainACkParallelCtx(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB, workers int) (bool, error) {
	if shape == nil || shape.SkAtom < 0 {
		return false, fmt.Errorf("solver: CertainACkParallel requires an AC(k) shape")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, err := purifyAtoms(ctx, q, d)
	if err != nil || m.Len() == 0 {
		return false, err
	}
	cg, comps := buildCycleGraph(q, shape, m)
	inC := cg.markedCycles(shape, m)
	// Never spin up more workers than there are components to decide: the
	// extras would only contend on the index counter and inflate goroutine
	// churn on small instances.
	if workers > len(comps) {
		workers = len(comps)
	}

	// fanCtx trips when a decisive component is found or the caller's
	// context does; workers claiming the next index check it first, so the
	// early exit skips the remaining components instead of draining them.
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var certain atomic.Bool
	var next atomic.Int64
	work := func() {
		for fanCtx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(comps) {
				return
			}
			if !markableComponent(cg, comps[i], inC) {
				certain.Store(true)
				cancel()
				return
			}
		}
	}
	// The fan-out draws its extra goroutines from the process-wide worker
	// gate shared with the shard pool: when this call runs inside a shard
	// solve that already saturated the gate, no goroutines are spawned and
	// the components are decided inline on the caller's goroutine — the two
	// layers share one GOMAXPROCS-derived budget instead of multiplying.
	gate := govern.Workers()
	var wg sync.WaitGroup
	for spawned := 0; spawned < workers-1; spawned++ {
		if !gate.TryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer gate.Release()
			work()
		}()
	}
	work()
	wg.Wait()
	if certain.Load() {
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return false, nil
}
