package certainty

// Inline database load: the per-request data-plane work of an inline
// /v1/solve — parse the DB text, build the interned columnar view, and
// digest the query's relations for the verdict-cache key. The FO decision
// that follows takes microseconds, so this is what an inline FO request
// pays.

import (
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// loadInstance renders an emb=n three-atom chain instance as DB text, the
// shape of one inline-fo request body.
func loadInstance(n int) (text string, rels []string) {
	q := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
	return d.String(), []string{"R", "S", "T"}
}

// BenchmarkDBLoad times each load layer on its own and the three together.
func BenchmarkDBLoad(b *testing.B) {
	text, rels := loadInstance(128)
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intern", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := db.MustParse(text)
			b.StartTimer()
			d.Interned()
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := db.MustParse(text)
			b.StartTimer()
			d.DigestOf(rels)
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := db.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			d.Interned()
			d.DigestOf(rels)
		}
	})
}

// TestDBLoadAllocRegression pins the allocation count of an inline load:
// parse, interned view and the verdict-cache digest of an emb=128 instance.
// The load allocates per relation, map and column, not per fact, so the
// ceiling sits well below the fact count: bringing back a per-fact string
// (an ID encoding, a digest rendering, a block slice) breaks it.
func TestDBLoadAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	text, rels := loadInstance(128)
	const ceiling = 450
	if n := db.MustParse(text).Len(); n < 3*ceiling/2 {
		t.Fatalf("instance has %d facts; the %d-alloc ceiling must sit well below that", n, ceiling)
	}
	allocs := testing.AllocsPerRun(20, func() {
		d, err := db.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		d.Interned()
		d.DigestOf(rels)
	})
	t.Logf("load allocs/op: %.0f", allocs)
	if allocs > ceiling {
		t.Fatalf("inline load allocates %.0f/op, above the %d ceiling", allocs, ceiling)
	}
}
