package prob

import (
	"math/big"
	"slices"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
)

// CountMemo is the counting-layer twin of the solver's ShardMemo: it maps a
// shard fingerprint (shard.Decomposition.ShardFingerprint) to the shard's
// exact tallies (N repairs, s satisfying). Both ♯CERTAINTY and PROBABILITY
// derive from the same per-shard (N, s) pairs through the product
// identities, so one memo serves both. Content addressing makes reuse
// exact: a mutation changes the touched shards' fingerprints, which then
// miss and re-enumerate, while untouched shards reuse their tallies.
//
// The stored big.Ints are shared between the memo and every caller; the
// combining algebra only reads them (Mul/Sub allocate their results), and
// callers must do the same.
//
// Safe for concurrent use.
type CountMemo struct {
	mu      sync.Mutex
	c       *lru.Cache[string, countEntry]
	byBlock map[string]map[string]struct{}
	m       *obs.CacheMetrics
}

// countEntry is one memoized shard's tallies plus its block IDs for
// eviction/invalidation unindexing.
type countEntry struct {
	repairs    *big.Int
	satisfying *big.Int
	blocks     []string
}

// NewCountMemo returns a memo holding at most size entries (size <= 0
// selects the solver's default memo size, 4096). Metrics m may be nil.
func NewCountMemo(size int, m *obs.CacheMetrics) *CountMemo {
	if size <= 0 {
		size = 4096
	}
	cm := &CountMemo{
		c:       lru.New[string, countEntry](size),
		byBlock: make(map[string]map[string]struct{}),
		m:       m,
	}
	m.SetSize(0, cm.c.Cap())
	return cm
}

func (cm *CountMemo) get(fp string) (countEntry, bool) {
	cm.mu.Lock()
	e, ok := cm.c.Get(fp)
	cm.mu.Unlock()
	if ok {
		cm.m.Hit()
	} else {
		cm.m.Miss()
	}
	return e, ok
}

func (cm *CountMemo) put(fp string, e countEntry) {
	cm.mu.Lock()
	evictedFP, evicted, wasEvicted := cm.c.PutEvicted(fp, e)
	if wasEvicted {
		cm.unindexLocked(evictedFP, evicted.blocks)
		cm.m.Evicted(1)
	}
	for _, bid := range e.blocks {
		set := cm.byBlock[bid]
		if set == nil {
			set = make(map[string]struct{})
			cm.byBlock[bid] = set
		}
		set[fp] = struct{}{}
	}
	cm.m.SetSize(cm.c.Len(), cm.c.Cap())
	cm.mu.Unlock()
}

// Invalidate drops every entry whose fingerprint covers any of the given
// block IDs, returning how many were removed. As with the verdict memo this
// is hygiene, not correctness — stale fingerprints are never looked up
// again.
func (cm *CountMemo) Invalidate(blocks []string) int {
	cm.mu.Lock()
	removed := 0
	for _, bid := range blocks {
		for fp := range cm.byBlock[bid] {
			if e, ok := cm.c.Peek(fp); ok {
				cm.c.Delete(fp)
				cm.unindexLocked(fp, e.blocks)
				removed++
			}
		}
		delete(cm.byBlock, bid)
	}
	cm.m.SetSize(cm.c.Len(), cm.c.Cap())
	cm.mu.Unlock()
	return removed
}

func (cm *CountMemo) unindexLocked(fp string, blocks []string) {
	for _, bid := range blocks {
		if set, ok := cm.byBlock[bid]; ok {
			delete(set, fp)
			if len(set) == 0 {
				delete(cm.byBlock, bid)
			}
		}
	}
}

// Len returns the number of memoized shard tallies.
func (cm *CountMemo) Len() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.c.Len()
}

// Stats snapshots the underlying cache counters.
func (cm *CountMemo) Stats() lru.Stats {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.c.Stats()
}

// countShardsMemo is countShards with per-shard memoization: shards whose
// fingerprints hit the memo reuse their tallies and are never built, only
// the misses are built and enumerated (in parallel on the worker pool), and
// the fresh tallies are memoized afterwards. The returned matrix is
// identical to countShards'.
func countShardsMemo(dec *shard.Decomposition, d *db.DB, memo *CountMemo) [][]shardCounts {
	if memo == nil {
		return countShards(dec)
	}
	var flat []flatShard
	counts := make([][]shardCounts, len(dec.Components))
	for j, shards := range dec.FactIndexes {
		counts[j] = make([]shardCounts, len(shards))
		fpr := dec.Fingerprinter(d, j)
		for i := range shards {
			fp := fpr.Fingerprint(i)
			if e, ok := memo.get(fp); ok {
				counts[j][i] = shardCounts{repairs: e.repairs, satisfying: e.satisfying}
				continue
			}
			flat = append(flat, flatShard{comp: j, idx: i, fp: fp})
		}
	}
	countFlat(dec, flat, counts)
	for _, fs := range flat {
		sc := counts[fs.comp][fs.idx]
		memo.put(fs.fp, countEntry{
			repairs:    sc.repairs,
			satisfying: sc.satisfying,
			blocks:     slices.Clone(dec.Blocks[fs.comp][fs.idx]), // not the decomposition's whole array
		})
	}
	return counts
}

// CountSatisfyingShardedMemo is CountSatisfyingSharded through the count
// memo: identical results (the exact ∏ᵢNᵢ − ∏ᵢ(Nᵢ−sᵢ) per component,
// components and irrelevant-block sizes multiplied), with per-shard tallies
// reused across calls and mutations wherever the shard content is
// unchanged. Irrelevant-block sizes are read from the decomposition each
// call — they are not memoized, so they always reflect the current
// database.
func CountSatisfyingShardedMemo(q cq.Query, d *db.DB, maxShards int, memo *CountMemo) *big.Int {
	dec := shard.Decompose(q, d, maxShards)
	counts := countShardsMemo(dec, d, memo)
	return combineCounts(dec, counts)
}

// UniformProbabilityShardedMemo is UniformProbabilitySharded through the
// count memo: identical rationals, per-shard tallies reused as above.
func UniformProbabilityShardedMemo(q cq.Query, d *db.DB, maxShards int, memo *CountMemo) *big.Rat {
	dec := shard.Decompose(q, d, maxShards)
	counts := countShardsMemo(dec, d, memo)
	return combineProbability(counts)
}
