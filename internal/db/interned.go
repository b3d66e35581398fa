package db

import (
	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/obs"
)

var internBuilds = obs.Default.Counter("db_intern_builds_total")

func init() {
	obs.Default.Help("db_intern_builds_total", "Interned columnar views built (first use after mutation).")
}

// Interned is the dense-id columnar view of a database: every relation name
// and constant is interned to a uint32, and each relation's facts are stored
// as per-column []uint32 with block-offset arrays. It is an immutable
// snapshot built lazily on first use (DB.Interned) and dropped on mutation;
// evaluation hot paths in engine/fo/solver run entirely over it, touching
// strings only at the boundary (query compile, result materialization).
//
// Id assignment is deterministic: relation names and arguments are interned
// by one pass over the global fact insertion order. Snapshots preserve that
// order, so a save→reload round-trip reproduces the exact same ids (locked
// by TestInternedSnapshotStableIDs). Digests are computed from strings and
// never consult this view, so interning is digest-compatible by
// construction.
type Interned struct {
	// Syms maps symbols ↔ dense ids. Read-only after build.
	Syms *intern.Table

	rels map[string]*IRel

	// domain lists the distinct ids occurring as fact arguments, in first
	// occurrence order; isDomainSym is the membership vector indexed by id
	// (relation names intern too, so the active domain is a subset of the
	// table).
	domain      []uint32
	isDomainSym []bool
}

// IRel is one relation's columnar storage. Fact index i is the relation's
// insertion position (identical to RelationFacts(rel)[i]); all index
// structures yield fact indices in ascending order, which IS insertion
// order — the invariant that makes interned enumeration byte-compatible
// with the string paths.
type IRel struct {
	// Arity and KeyLen mirror the relation signature.
	Arity  int
	KeyLen int
	// Cols holds the facts column-wise: Cols[pos][i] is the id of argument
	// pos of fact i. len(Cols) == Arity, len(Cols[pos]) == NumFacts().
	Cols [][]uint32
	// ByBlock lists fact indices grouped by block — blocks in
	// first-insertion order, facts in insertion order within each — and
	// BlockOff marks the group boundaries: block b spans
	// ByBlock[BlockOff[b]:BlockOff[b+1]].
	ByBlock  []uint32
	BlockOff []uint32
	// BlockOfFact maps each fact index to its block ordinal.
	BlockOfFact []uint32

	blockIdx chainIndex             // hash(key ids) → block ordinals (verify on probe)
	factIdx  chainIndex             // hash(all ids) → fact indices (verify on probe)
	postings []map[uint32][2]uint32 // per position: id → [start, end) in postSeg
	postSeg  [][]uint32             // per position: fact indices grouped by id, ascending
}

// noOrd ends a chainIndex chain.
const noOrd = ^uint32(0)

// chainIndex maps a hash of ids to the ordinals (facts or blocks) carrying
// it: head holds the last ordinal added per hash, and next links each
// ordinal to the one added before it with the same hash. Collisions are
// rare, so almost every chain is one ordinal long, and the index costs one
// small map entry per ordinal plus one slice.
type chainIndex struct {
	head map[uint64]uint32
	next []uint32
}

func newChainIndex(n int) chainIndex {
	return chainIndex{head: make(map[uint64]uint32, n), next: make([]uint32, n)}
}

// add links ordinal o under hash h.
func (c *chainIndex) add(h uint64, o uint32) {
	prev, ok := c.head[h]
	if !ok {
		prev = noOrd
	}
	c.next[o] = prev
	c.head[h] = o
}

// first returns the head of h's chain, noOrd when h is absent; follow the
// chain through next.
func (c *chainIndex) first(h uint64) uint32 {
	if o, ok := c.head[h]; ok {
		return o
	}
	return noOrd
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashIDs is FNV-1a folding each id in one step. Probes verify against the
// columns, so occasional collisions cost a comparison, never a wrong answer.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

// NumFacts returns the number of facts of the relation.
func (r *IRel) NumFacts() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// NumBlocks returns the number of blocks of the relation.
func (r *IRel) NumBlocks() int { return len(r.BlockOff) - 1 }

// BlockSpan returns the fact indices of block b (insertion order) as a
// shared sub-slice of ByBlock. Zero-alloc.
func (r *IRel) BlockSpan(b int) []uint32 {
	return r.ByBlock[r.BlockOff[b]:r.BlockOff[b+1]]
}

// keyMatches reports whether the fact at index fi carries exactly the given
// key ids.
func (r *IRel) keyMatches(fi uint32, key []uint32) bool {
	for p, id := range key {
		if r.Cols[p][fi] != id {
			return false
		}
	}
	return true
}

// BlockOf returns the fact indices of the block with the given key ids
// (len(key) must be KeyLen), or (nil, false) when no such block exists.
// Zero-alloc: the result is a shared sub-slice of ByBlock.
func (r *IRel) BlockOf(key []uint32) ([]uint32, bool) {
	for b := r.blockIdx.first(hashIDs(key)); b != noOrd; b = r.blockIdx.next[b] {
		span := r.BlockSpan(int(b))
		if r.keyMatches(span[0], key) {
			return span, true
		}
	}
	return nil, false
}

// FactIndex returns the index of the fact with exactly the given argument
// ids (len(args) must be Arity), or (0, false) when absent. Zero-alloc.
func (r *IRel) FactIndex(args []uint32) (uint32, bool) {
	for fi := r.factIdx.first(hashIDs(args)); fi != noOrd; fi = r.factIdx.next[fi] {
		if r.keyMatches(fi, args) {
			return fi, true
		}
	}
	return 0, false
}

// HasTuple reports whether the relation contains a fact with exactly the
// given argument ids. The key length is not part of the identity, matching
// DB.Has (Fact.ID encodes relation and arguments only). Zero-alloc.
func (r *IRel) HasTuple(args []uint32) bool {
	_, ok := r.FactIndex(args)
	return ok
}

// Posting returns the ascending fact indices carrying id at argument
// position pos, as a shared slice. Zero-alloc.
func (r *IRel) Posting(pos int, id uint32) []uint32 {
	span, ok := r.postings[pos][id]
	if !ok {
		return nil
	}
	return r.postSeg[pos][span[0]:span[1]:span[1]]
}

// Arg returns the id of argument pos of fact fi.
func (r *IRel) Arg(fi uint32, pos int) uint32 { return r.Cols[pos][fi] }

// Rel returns the columnar storage of the named relation, or nil when the
// relation is absent.
func (in *Interned) Rel(name string) *IRel { return in.rels[name] }

// Domain returns the distinct ids occurring as fact arguments, in first
// occurrence order. Shared; must not be modified.
func (in *Interned) Domain() []uint32 { return in.domain }

// IsDomainSym reports whether id occurs as a fact argument. Ids outside the
// table (including intern.None and formula-constant pseudo-ids) are safely
// outside the domain.
func (in *Interned) IsDomainSym(id uint32) bool {
	return int64(id) < int64(len(in.isDomainSym)) && in.isDomainSym[id]
}

// Stats reports the symbol-table census and hit/miss telemetry of this view.
func (in *Interned) Stats() intern.Stats { return in.Syms.Stats() }

// Interned returns the dense-id columnar view of the database, building it
// on first use. The view is an immutable snapshot: mutations drop the
// pointer and the next call rebuilds. Clones share the view (it is
// immutable), so cloning stays O(facts) flat copies. Safe for concurrent
// readers; like all DB reads it must not race with mutations.
func (d *DB) Interned() *Interned {
	if in := d.interned.Load(); in != nil {
		return in
	}
	in := d.buildInterned()
	if !d.interned.CompareAndSwap(nil, in) {
		return d.interned.Load()
	}
	return in
}

// buildInterned constructs the columnar view. Pass 1 interns symbols in
// global fact insertion order — fixing the deterministic id assignment and
// the active domain — with one probe per symbol occurrence, writing each
// argument's id straight into its relation's column. Pass 2 indexes each relation from its columns (see indexRel).
func (d *DB) buildInterned() *Interned {
	internBuilds.Inc()
	syms := intern.NewTable()
	in := &Interned{
		Syms: syms,
		rels: make(map[string]*IRel, len(d.rels)),
	}
	// A relation's facts are the subsequence of the global facts naming it,
	// in the same order, so each relation fills its columns row by row.
	type fill struct {
		ir  *IRel
		row int
	}
	fills := make(map[string]*fill, len(d.rels))
	for name, r := range d.rels {
		ir := newIRel(r.sig, len(r.facts))
		in.rels[name] = ir
		fills[name] = &fill{ir: ir}
	}
	for _, f := range d.facts {
		cur := fills[f.Rel]
		if id := syms.Intern(f.Rel); int(id) == len(in.isDomainSym) {
			in.isDomainSym = append(in.isDomainSym, false)
		}
		for p, a := range f.Args {
			id := syms.Intern(a)
			if int(id) == len(in.isDomainSym) {
				in.isDomainSym = append(in.isDomainSym, false)
			}
			if !in.isDomainSym[id] {
				in.isDomainSym[id] = true
				in.domain = append(in.domain, id)
			}
			cur.ir.Cols[p][cur.row] = id
		}
		cur.row++
	}

	count, next := make([]uint32, syms.Len()), make([]uint32, syms.Len())
	for name, r := range d.rels {
		indexRel(in.rels[name], r, count, next)
	}
	return in
}

// newIRel allocates the columns of a relation with the given signature and
// fact count, one backing array for all of them.
func newIRel(sig [2]int, n int) *IRel {
	ir := &IRel{
		Arity:  sig[0],
		KeyLen: sig[1],
		Cols:   make([][]uint32, sig[0]),
	}
	cells := make([]uint32, sig[0]*n)
	for p := range ir.Cols {
		ir.Cols[p] = cells[p*n : (p+1)*n : (p+1)*n]
	}
	return ir
}

// indexRel builds ir's block, fact and posting indexes from its filled
// columns and r's block ordinals (r.ords, which follow r's block order:
// first insertion, which removing a block's first fact does not change). A
// counting sort groups the facts by block ordinal, ascending within each
// block, and posting lists are counting-sorted the same way, per position,
// into one segment array, so a fresh view allocates per relation and
// position, not per fact, block or value. count and next are scratch
// indexed by symbol id, shared by all relations; count is all zero between
// calls.
func indexRel(ir *IRel, r *relation, count, next []uint32) {
	n, nb := len(r.facts), len(r.blockOrder)
	ir.BlockOfFact = make([]uint32, n)
	ir.BlockOff = make([]uint32, nb+1)
	for i, b := range r.ords {
		ir.BlockOfFact[i] = uint32(b)
		ir.BlockOff[b+1]++
	}
	for b := 0; b < nb; b++ {
		ir.BlockOff[b+1] += ir.BlockOff[b]
	}
	cursor := make([]uint32, nb)
	copy(cursor, ir.BlockOff[:nb])
	ir.ByBlock = make([]uint32, n)
	for i, b := range ir.BlockOfFact {
		ir.ByBlock[cursor[b]] = uint32(i)
		cursor[b]++
	}

	args := make([]uint32, ir.Arity)
	ir.blockIdx = newChainIndex(nb)
	for b := 0; b < nb; b++ {
		first := ir.ByBlock[ir.BlockOff[b]]
		ir.blockIdx.add(hashIDs(ir.row(first, args)[:ir.KeyLen]), uint32(b))
	}
	ir.factIdx = newChainIndex(n)
	for i := 0; i < n; i++ {
		ir.factIdx.add(hashIDs(ir.row(uint32(i), args)), uint32(i))
	}

	// Postings: per position, count each id, give each a segment in
	// first-occurrence order, then fill the segments in ascending fact order.
	ir.postings = make([]map[uint32][2]uint32, ir.Arity)
	ir.postSeg = make([][]uint32, ir.Arity)
	backing := make([]uint32, ir.Arity*n)
	for p, col := range ir.Cols {
		seg := backing[p*n : (p+1)*n : (p+1)*n]
		distinct := 0
		for _, id := range col {
			if count[id] == 0 {
				distinct++
			}
			count[id]++
		}
		m := make(map[uint32][2]uint32, distinct)
		off := uint32(0)
		for _, id := range col {
			if c := count[id]; c != 0 {
				m[id] = [2]uint32{off, off + c}
				next[id] = off
				off += c
				count[id] = 0
			}
		}
		for i, id := range col {
			seg[next[id]] = uint32(i)
			next[id]++
		}
		ir.postings[p], ir.postSeg[p] = m, seg
	}
}

// row reads the ids of fact fi into buf.
func (r *IRel) row(fi uint32, buf []uint32) []uint32 {
	for p := range buf {
		buf[p] = r.Cols[p][fi]
	}
	return buf
}
