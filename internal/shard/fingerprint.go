package shard

import (
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Shard fingerprints are the content addresses behind delta re-solve: a
// shard's conclusive verdict is a pure function of (component query, shard
// fact set), the shard fact set is exactly the union of its blocks, and a
// block's facts are determined by its content digest. Hashing the
// component's canonical key together with the shard's sorted (block ID,
// block digest) pairs therefore identifies the sub-instance up to SHA-256
// collision — across databases, mutations, and fact insertion orders.
//
// This is what makes the solver's shard memo safe without any invalidation
// protocol: a mutation changes the touched blocks' digests, so the touched
// shards' fingerprints change and simply miss the memo, while untouched
// shards keep their fingerprints and hit. Explicit invalidation (the
// server's block-granular eviction) is memory hygiene and observability,
// never a correctness requirement.

// ShardFingerprint returns the content address of shard idx of component
// comp, computed against the parent database the decomposition was built
// from. The parent's per-block digests are maintained incrementally by the
// copy-on-write index, so after a mutation only the touched block is
// re-hashed; fingerprinting the other shards reads memoized digests.
//
// Fingerprints of shards with different block content always differ: the
// block IDs pin the key set and the digests pin each block's facts, and
// both are hashed with unambiguous length prefixes (db.HashParts). The
// canonical component key scopes the address to the query, so one memo can
// safely serve every query shape.
func (dec *Decomposition) ShardFingerprint(d *db.DB, comp, idx int) string {
	return dec.Fingerprinter(d, comp).Fingerprint(idx)
}

// ComponentFingerprints returns the fingerprints of every shard of
// component comp, in shard order.
func (dec *Decomposition) ComponentFingerprints(d *db.DB, comp int) []string {
	fp := dec.Fingerprinter(d, comp)
	fps := make([]string, len(dec.Blocks[comp]))
	for i := range fps {
		fps[i] = fp.Fingerprint(i)
	}
	return fps
}

// Fingerprinter computes the shard fingerprints of one component one at a
// time, through one reused buffer, so a caller can stop early: the memo
// pre-pass of delta re-solve hashes shards only until a memoized certain
// shard settles the component. Not safe for concurrent use.
type Fingerprinter struct {
	dec  *Decomposition
	d    *db.DB
	comp int
	key  string
	buf  []byte
}

// Fingerprinter returns the fingerprinter of component comp against the
// parent database d.
func (dec *Decomposition) Fingerprinter(d *db.DB, comp int) *Fingerprinter {
	return &Fingerprinter{dec: dec, d: d, comp: comp, key: dec.componentKey(comp)}
}

// Fingerprint returns ShardFingerprint of shard idx: db.HashParts over the
// component key and the shard's sorted (block ID, block digest) pairs.
func (fp *Fingerprinter) Fingerprint(idx int) string {
	b := db.AppendPart(fp.buf[:0], fp.key)
	rels := fp.dec.blockRels[fp.comp][idx]
	var digests map[string]string
	rel := "" // relation names are never empty
	for k, bid := range fp.dec.Blocks[fp.comp][idx] {
		if rels[k] != rel {
			rel = rels[k]
			digests = fp.d.BlockDigests(rel)
		}
		b = db.AppendPart(b, bid)
		b = db.AppendPart(b, digests[bid])
	}
	fp.buf = b
	return db.SumParts(b)
}

// componentKey memoizes the canonical key of component comp; queries equal
// up to variable renaming and atom reordering share fingerprints.
func (dec *Decomposition) componentKey(comp int) string {
	dec.fpMu.Lock()
	defer dec.fpMu.Unlock()
	if dec.compKeys == nil {
		dec.compKeys = make([]string, len(dec.Components))
	}
	if dec.compKeys[comp] == "" {
		dec.compKeys[comp] = cq.CanonicalKey(dec.Components[comp])
	}
	return dec.compKeys[comp]
}
