package db

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// relation holds one relation's facts and derived structure. Relations are
// the copy-on-write unit of the database: Clone marks every relation shared,
// and a mutation of a shared relation first produces a private deep copy, so
// a mutation touches only the structures of the relation it changes — every
// other relation (facts, blocks, postings, digests) is carried over by
// pointer. This is what makes invalidation incremental: writing one fact no
// longer discards the whole database's index and content digest, only the
// touched relation's lazy parts (and, within it, only the touched block's
// digest is recomputed).
//
// Core fields (sig, facts, ids, blocks, blockOrder, ords) are maintained eagerly
// on every mutation. Lazy fields (postings, blockList, blockDigests,
// digest) are built on first use under imu and then read without locks;
// once a relation is shared it is immutable, so the memoized parts stay
// valid forever.
type relation struct {
	sig        [2]int
	facts      []Fact            // insertion order
	ids        map[string]int    // Fact.ID() → index into facts
	blocks     map[string][]Fact // Fact.BlockID() → facts, insertion order
	blockOrder []string          // block IDs in first-insertion order
	ords       []int32           // ords[i]: blockOrder position of facts[i]'s block

	// shared is set when a second database gains a reference to this
	// struct (Clone). A shared relation must never be mutated in place.
	shared atomic.Bool

	imu          sync.Mutex
	postings     map[string][]Fact // lazily built: (pos, value) → facts
	blockList    [][]Fact          // lazily built: blocks in first-insertion order
	blockDigests map[string]string // block ID → content digest; incrementally maintained
	digest       string            // composed relation digest; "" until composed
}

func newRelation(sig [2]int) *relation {
	return &relation{
		sig:    sig,
		ids:    make(map[string]int),
		blocks: make(map[string][]Fact),
	}
}

// postingKey encodes (argument position, value) unambiguously within one
// relation; NUL is safe as a separator because Validate rejects NUL bytes
// in arguments.
func postingKey(pos int, value string) string {
	var b strings.Builder
	b.Grow(len(value) + 4)
	b.WriteString(strconv.Itoa(pos))
	b.WriteByte(0)
	b.WriteString(value)
	return b.String()
}

// mutable returns a relation that may be updated in place: r itself when it
// is exclusively owned, otherwise a private deep copy of the core fields.
// The copy drops the lazily built postings and block list (they rebuild on
// demand, scoped to this relation) but carries the per-block digests over —
// the mutation recomputes only the digest of the block it touches.
func (r *relation) mutable() *relation {
	if !r.shared.Load() {
		return r
	}
	indexInvalidations.Inc()
	c := &relation{
		sig:        r.sig,
		facts:      append(make([]Fact, 0, len(r.facts)+1), r.facts...),
		ids:        make(map[string]int, len(r.ids)+1),
		blocks:     make(map[string][]Fact, len(r.blocks)+1),
		blockOrder: append([]string(nil), r.blockOrder...),
		ords:       append(make([]int32, 0, len(r.ords)+1), r.ords...),
	}
	for k, v := range r.ids {
		c.ids[k] = v
	}
	for k, v := range r.blocks {
		c.blocks[k] = append(make([]Fact, 0, len(v)), v...)
	}
	r.imu.Lock()
	if r.blockDigests != nil {
		c.blockDigests = make(map[string]string, len(r.blockDigests))
		for k, v := range r.blockDigests {
			c.blockDigests[k] = v
		}
	}
	r.imu.Unlock()
	return c
}

// index returns the position of f in r.facts. The probe encodes f on the
// stack and allocates nothing.
func (r *relation) index(f Fact) (int, bool) {
	var buf [encodingBuf]byte
	b, _ := appendEncoding(buf[:0], f)
	i, ok := r.ids[string(b)]
	return i, ok
}

// blockOf returns the block holding f's key as the shared live slice, nil
// when there is none. Allocation-free like index.
func (r *relation) blockOf(f Fact) []Fact {
	var buf [encodingBuf]byte
	b, _ := appendEncoding(buf[:0], f.keyOnly())
	return r.blocks[string(b)]
}

// insert adds a fact known to be absent, given its ID and BlockID, updating
// the core structures eagerly and the lazy structures incrementally where
// they exist. Must only be called on an exclusively owned relation (after
// mutable).
func (r *relation) insert(f Fact, id, bid string) {
	blk, existed := r.blocks[bid]
	ord := int32(len(r.blockOrder))
	if existed {
		first, _ := r.index(blk[0])
		ord = r.ords[first]
	} else {
		r.blockOrder = append(r.blockOrder, bid)
	}
	r.ids[id] = len(r.facts)
	r.facts = append(r.facts, f)
	r.ords = append(r.ords, ord)
	r.blocks[bid] = append(blk, f)
	r.imu.Lock()
	if r.postings != nil {
		for pos, v := range f.Args {
			key := postingKey(pos, v)
			r.postings[key] = append(r.postings[key], f)
		}
	}
	r.blockList = nil // order-preserving rebuild is cheap and rare
	if r.blockDigests != nil {
		r.blockDigests[bid] = computeDigest(r.blocks[bid])
	}
	r.digest = ""
	r.imu.Unlock()
}

// remove deletes the fact with the given ID and BlockID, which must exist.
// Must only be called on an exclusively owned relation. Reports whether the
// fact's block became empty.
func (r *relation) remove(f Fact, id, bid string) (blockEmptied bool) {
	idx := r.ids[id]
	ord := r.ords[idx]
	r.facts = append(r.facts[:idx], r.facts[idx+1:]...)
	r.ords = append(r.ords[:idx], r.ords[idx+1:]...)
	delete(r.ids, id)
	for gid, gi := range r.ids {
		if gi > idx {
			r.ids[gid] = gi - 1
		}
	}
	blk := r.blocks[bid]
	kept := blk[:0]
	for _, g := range blk {
		if !g.Equal(f) {
			kept = append(kept, g)
		}
	}
	if len(kept) == 0 {
		delete(r.blocks, bid)
		r.blockOrder = append(r.blockOrder[:ord], r.blockOrder[ord+1:]...)
		for i, o := range r.ords {
			if o > ord {
				r.ords[i] = o - 1
			}
		}
		blockEmptied = true
	} else {
		r.blocks[bid] = kept
	}
	r.imu.Lock()
	if r.postings != nil {
		for pos, v := range f.Args {
			key := postingKey(pos, v)
			list := r.postings[key]
			keptP := list[:0]
			for _, g := range list {
				if !g.Equal(f) {
					keptP = append(keptP, g)
				}
			}
			if len(keptP) == 0 {
				delete(r.postings, key)
			} else {
				r.postings[key] = keptP
			}
		}
	}
	r.blockList = nil
	if r.blockDigests != nil {
		if blockEmptied {
			delete(r.blockDigests, bid)
		} else {
			r.blockDigests[bid] = computeDigest(r.blocks[bid])
		}
	}
	r.digest = ""
	r.imu.Unlock()
	return blockEmptied
}

// postingsOf returns the lazily built (position, value) posting lists.
func (r *relation) postingsOf() map[string][]Fact {
	r.imu.Lock()
	defer r.imu.Unlock()
	if r.postings == nil {
		indexBuilds.Inc()
		r.postings = make(map[string][]Fact)
		for _, f := range r.facts {
			for pos, v := range f.Args {
				key := postingKey(pos, v)
				r.postings[key] = append(r.postings[key], f)
			}
		}
	}
	return r.postings
}

// blockListOf returns the relation's blocks in first-insertion order as a
// memoized slice of shared slices.
func (r *relation) blockListOf() [][]Fact {
	r.imu.Lock()
	defer r.imu.Unlock()
	if r.blockList == nil && len(r.blockOrder) > 0 {
		r.blockList = make([][]Fact, len(r.blockOrder))
		for i, bid := range r.blockOrder {
			r.blockList[i] = r.blocks[bid]
		}
	}
	return r.blockList
}

// blockDigestsLocked builds the per-block digest map on first use. The
// caller must hold imu. One digester hashes every block, and the hex
// digests are written into one buffer that becomes a single string. Once
// built, insert/remove maintain the map incrementally, so after a mutation
// only the touched block is re-hashed.
func (r *relation) blockDigestsLocked() map[string]string {
	if r.blockDigests == nil {
		var g digester
		var hexes strings.Builder
		hexes.Grow(hexDigestLen * len(r.blockOrder))
		var hx [hexDigestLen]byte
		for _, bid := range r.blockOrder {
			g.block(r.blocks[bid])
			hexes.Write(g.appendHex(hx[:0]))
		}
		all := hexes.String()
		r.blockDigests = make(map[string]string, len(r.blockOrder))
		for i, bid := range r.blockOrder {
			r.blockDigests[bid] = all[i*hexDigestLen : (i+1)*hexDigestLen]
		}
	}
	return r.blockDigests
}

// blockDigestsOf returns the memoized per-block content digests keyed by
// block ID. The returned map is the live memoized structure: callers must
// treat it as read-only and must not hold it across a mutation of this
// relation (the shard-fingerprint path reads it transiently off immutable
// published snapshots).
func (r *relation) blockDigestsOf() map[string]string {
	r.imu.Lock()
	defer r.imu.Unlock()
	return r.blockDigestsLocked()
}

// digestOf returns the relation's composed content digest: the hash of the
// sorted per-block digests. Block digests are maintained incrementally by
// insert/remove once first computed, so after a mutation only the touched
// block is re-hashed and the composition re-sorted.
func (r *relation) digestOf() string {
	r.imu.Lock()
	defer r.imu.Unlock()
	if r.digest != "" {
		return r.digest
	}
	digests := r.blockDigestsLocked()
	parts := make([]string, 0, len(digests))
	for _, dg := range digests {
		parts = append(parts, dg)
	}
	sort.Strings(parts)
	r.digest = hashParts(parts)
	digestComputations.Inc()
	return r.digest
}
