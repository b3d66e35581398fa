package solver

import (
	"fmt"
	"testing"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

func TestShardMemoDropsUnknown(t *testing.T) {
	m := NewShardMemo(4, nil)
	m.Put("fp", OutcomeUnknown, []string{"R/b"})
	if m.Len() != 0 {
		t.Fatalf("Unknown was memoized; Len = %d", m.Len())
	}
	if o, ok := m.Get("fp"); ok {
		t.Fatalf("Get returned %v for a dropped outcome", o)
	}
	m.Put("fp", OutcomeCertain, []string{"R/b"})
	if o, ok := m.Get("fp"); !ok || o != OutcomeCertain {
		t.Fatalf("Get = (%v, %v), want (certain, true)", o, ok)
	}
}

// TestShardMemoCopiesBlocks: an entry keeps its own block list. The
// caller's list is a window into one decomposition-wide array; were it
// kept, a later write to that array would change which blocks the entry
// is unindexed from on eviction, leaving a stale index entry behind.
func TestShardMemoCopiesBlocks(t *testing.T) {
	m := NewShardMemo(1, nil)
	all := []string{"R/a", "R/b"}
	m.Put("fp", OutcomeNotCertain, all[1:2])
	all[1] = "R/z"
	m.Put("other", OutcomeNotCertain, []string{"R/c"}) // evicts fp
	m.Put("fp", OutcomeNotCertain, []string{"R/c"})    // evicts other
	if removed := m.Invalidate([]string{"R/b"}); removed != 0 {
		t.Fatalf("invalidating R/b removed %d entries; the only entry covers R/c", removed)
	}
}

func TestShardMemoEvictionUnindexes(t *testing.T) {
	m := NewShardMemo(2, nil)
	m.Put("fp1", OutcomeCertain, []string{"R/a"})
	m.Put("fp2", OutcomeNotCertain, []string{"R/b"})
	m.Put("fp3", OutcomeCertain, []string{"R/c"}) // evicts fp1 (LRU)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if m.Contains("fp1") {
		t.Fatal("fp1 survived past capacity")
	}
	// The evicted entry must be gone from the block index too: invalidating
	// its block removes nothing (a leak here would also pin garbage).
	if removed := m.Invalidate([]string{"R/a"}); removed != 0 {
		t.Fatalf("Invalidate of evicted entry's block removed %d entries", removed)
	}
	if removed := m.Invalidate([]string{"R/b"}); removed != 1 {
		t.Fatalf("Invalidate(R/b) removed %d, want 1", removed)
	}
	if st := m.Stats(); st.Evictions != 1 {
		t.Fatalf("Stats.Evictions = %d, want 1 (capacity only; invalidations are separate)", st.Evictions)
	}
	if got := m.Invalidations(); got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
}

func TestShardMemoSharedBlock(t *testing.T) {
	// Two entries covering one common block: invalidating it drops both;
	// a block shared with nothing else is cleaned from the index.
	m := NewShardMemo(8, nil)
	m.Put("fp1", OutcomeCertain, []string{"R/a", "S/x"})
	m.Put("fp2", OutcomeNotCertain, []string{"R/b", "S/x"})
	m.Put("fp3", OutcomeCertain, []string{"U/k"})
	if removed := m.Invalidate([]string{"S/x"}); removed != 2 {
		t.Fatalf("Invalidate(S/x) removed %d, want 2", removed)
	}
	if m.Contains("fp1") || m.Contains("fp2") {
		t.Fatal("entries covering the invalidated block survived")
	}
	if !m.Contains("fp3") {
		t.Fatal("unrelated entry was dropped")
	}
	// Their other blocks were unindexed along the way.
	if removed := m.Invalidate([]string{"R/a", "R/b"}); removed != 0 {
		t.Fatalf("stale index entries: Invalidate removed %d", removed)
	}
}

func TestShardMemoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cm := obs.NewCacheMetrics(reg, "shard_memo")
	m := NewShardMemo(2, cm)
	m.Put("fp1", OutcomeCertain, []string{"R/a"})
	if _, ok := m.Get("fp1"); !ok {
		t.Fatal("expected hit")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("expected miss")
	}
	m.Put("fp2", OutcomeCertain, []string{"R/b"})
	m.Put("fp3", OutcomeCertain, []string{"R/c"})
	if h, ms, ev := cm.Hits(), cm.Misses(), cm.Evictions(); h != 1 || ms != 1 || ev != 1 {
		t.Fatalf("metrics (hits, misses, evictions) = (%d, %d, %d), want (1, 1, 1)", h, ms, ev)
	}
	if l, c := cm.Len(), cm.Cap(); l != 2 || c != 2 {
		t.Fatalf("metrics (len, cap) = (%d, %d), want (2, 2)", l, c)
	}
	// Contains must not disturb the counters (it is the introspection
	// surface the metamorphic tests lean on).
	m.Contains("fp2")
	m.Contains("nope")
	if h, ms := cm.Hits(), cm.Misses(); h != 1 || ms != 1 {
		t.Fatalf("Contains moved counters: (hits, misses) = (%d, %d)", h, ms)
	}
}

func TestShardMemoDefaultSize(t *testing.T) {
	m := NewShardMemo(0, nil)
	if got := m.Stats().Cap; got != DefaultShardMemoSize {
		t.Fatalf("default cap = %d, want %d", got, DefaultShardMemoSize)
	}
}

func TestDeltaTouchedBlocks(t *testing.T) {
	f := func(rel, key, val string) db.Fact {
		return db.Fact{Rel: rel, KeyLen: 1, Args: []string{key, val}}
	}
	dl := Delta{
		Ins: []db.Fact{f("S", "b", "c"), f("R", "a", "b"), f("R", "a", "b2")},
		Del: []db.Fact{f("R", "a", "b3"), f("U", "k", "w")},
	}
	got := dl.TouchedBlocks()
	want := []string{f("R", "a", "b").BlockID(), f("S", "b", "c").BlockID(), f("U", "k", "w").BlockID()}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("TouchedBlocks = %v, want sorted deduped %v", got, want)
	}
	if len(Delta{}.TouchedBlocks()) != 0 {
		t.Fatal("empty delta touched blocks")
	}
}
