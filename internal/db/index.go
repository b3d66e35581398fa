package db

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"

	"github.com/cqa-go/certainty/internal/obs"
)

// Index telemetry, recorded into the process-wide registry. Handles are
// resolved once at init, so the hot path pays one atomic add per (rare)
// build/invalidation — reads of memoized structure record nothing.
var (
	indexBuilds        = obs.Default.Counter("db_index_builds_total")
	indexInvalidations = obs.Default.Counter("db_index_invalidations_total")
	digestComputations = obs.Default.Counter("db_digest_computations_total")
)

func init() {
	obs.Default.Help("db_index_builds_total", "Per-relation posting-list index builds (first use after mutation).")
	obs.Default.Help("db_index_invalidations_total", "Copy-on-write relation privatizations caused by mutations.")
	obs.Default.Help("db_digest_computations_total", "Relation digest compositions over per-block digests.")
}

// The structural index is maintained per relation (see relation.go): each
// relation lazily builds and memoizes its posting lists, block list, and
// content digests, and mutations invalidate only the relation they touch.
// The accessors below are the read surface the solver hot paths consult:
//
//   - RelationFacts: relation → its facts in insertion order as one shared
//     slice (FactsOf copies on every call; the relation pays the copy never —
//     the slice IS the storage).
//   - BlocksOf: relation → its blocks in first-insertion order.
//   - BlockView: block ID → the block's facts as a shared slice.
//   - FactsAt: (relation, argument position, value) → the facts carrying
//     that value at that position, in insertion order. Embedding search uses
//     these to narrow candidate scans when any atom position is determined,
//     not just the full primary key.
//   - Digest / RelationDigest / DigestOf: content digests composed from
//     per-block digests, used by the serving layer to key verdict caches at
//     relation granularity so a mutation invalidates only the cache entries
//     whose queries read the touched relation.
//
// Every returned slice is shared and must be treated as immutable.

// hexDigestLen is the length of a hex-encoded SHA-256 digest.
const hexDigestLen = 2 * sha256.Size

// digester computes block digests with reused buffers, so hashing a
// relation's blocks allocates no per-fact or per-block strings. Like every
// digest of the index, a block digest is a SHA-256 over length-prefixed
// parts ("3:abc"), which makes concatenation unambiguous.
type digester struct {
	buf   []byte            // hash input
	enc   []byte            // a block's fact renderings, back to back
	spans [][2]int          // [start, end) of each rendering in enc
	sum   [sha256.Size]byte // the last digest computed
}

// appendPart appends one length-prefixed part to b.
func appendPart[T string | []byte](b []byte, e T) []byte {
	b = strconv.AppendInt(b, int64(len(e)), 10)
	b = append(b, ':')
	return append(b, e...)
}

// block sets g.sum to the digest of a fact set, order-independently: each
// fact is rendered as its key length, a bar, and its canonical encoding
// (appendEncoding; Fact.ID omits the key length), and the sorted renderings
// are the parts.
func (g *digester) block(facts []Fact) {
	g.enc, g.spans = g.enc[:0], g.spans[:0]
	for _, f := range facts {
		start := len(g.enc)
		g.enc = strconv.AppendInt(g.enc, int64(f.KeyLen), 10)
		g.enc = append(g.enc, '|')
		g.enc, _ = appendEncoding(g.enc, f)
		g.spans = append(g.spans, [2]int{start, len(g.enc)})
	}
	if len(g.spans) > 1 {
		slices.SortFunc(g.spans, func(a, b [2]int) int {
			return bytes.Compare(g.enc[a[0]:a[1]], g.enc[b[0]:b[1]])
		})
	}
	g.buf = g.buf[:0]
	for _, sp := range g.spans {
		g.buf = appendPart(g.buf, g.enc[sp[0]:sp[1]])
	}
	g.sum = sha256.Sum256(g.buf)
}

// appendHex appends the hex form of the last digest computed.
func (g *digester) appendHex(dst []byte) []byte {
	return hex.AppendEncode(dst, g.sum[:])
}

// computeDigest returns the hex digest of one fact set (see digester.block).
func computeDigest(facts []Fact) string {
	var g digester
	g.block(facts)
	return string(g.appendHex(nil))
}

// HashParts is the digest composition used throughout the index — a
// SHA-256 over length-prefixed parts — exported so higher layers (the shard
// fingerprints of internal/shard) compose their content addresses from the
// same primitive and inherit its collision resistance.
func HashParts(parts []string) string { return hashParts(parts) }

// AppendPart appends one HashParts part to b: HashParts(parts) is
// SumParts of the parts appended in order. A caller hashing many part lists
// builds each one in a single reused buffer this way instead of a []string.
func AppendPart(b []byte, part string) []byte { return appendPart(b, part) }

// SumParts returns the hex digest of parts appended with AppendPart, the
// same string HashParts returns for them.
func SumParts(b []byte) string {
	sum := sha256.Sum256(b)
	var hx [hexDigestLen]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// hashParts hashes a sequence of strings with per-entry length prefixes so
// concatenation is unambiguous, returning the hex digest.
func hashParts(parts []string) string {
	h := sha256.New()
	var part []byte
	for _, e := range parts {
		part = appendPart(part[:0], e)
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest returns a content digest of the database: two databases have equal
// digests iff they contain the same set of facts (up to SHA-256 collision),
// regardless of insertion order. The digest is composed from the memoized
// per-relation digests — which are themselves composed from per-block
// digests — so after a mutation only the touched block is re-hashed, the
// touched relation re-composed, and this root re-composed; untouched
// relations contribute their memoized digests unchanged.
func (d *DB) Digest() string {
	d.mu.Lock()
	if d.root != "" {
		root := d.root
		d.mu.Unlock()
		return root
	}
	d.mu.Unlock()
	names := d.Relations()
	parts := make([]string, 0, 2*len(names))
	for _, name := range names {
		parts = append(parts, name, d.rels[name].digestOf())
	}
	root := hashParts(parts)
	d.mu.Lock()
	d.root = root
	d.mu.Unlock()
	return root
}

// RelationDigest returns the content digest of one relation's facts, or ""
// when the relation is absent. Two databases whose relation digests for rel
// coincide contain the same facts for rel.
func (d *DB) RelationDigest(rel string) string {
	r, ok := d.rels[rel]
	if !ok {
		return ""
	}
	return r.digestOf()
}

// DigestOf returns a content digest over the named relations only: it is
// determined exactly by the facts of those relations (absent relations
// participate as explicit empty markers, so "absent" and "never mentioned"
// compose differently). The serving layer keys verdict caches on
// DigestOf(query's relations): a mutation then invalidates only the cached
// verdicts whose queries read the touched relation, instead of every
// verdict in the cache.
func (d *DB) DigestOf(rels []string) string {
	names := append([]string(nil), rels...)
	sort.Strings(names)
	parts := make([]string, 0, 2*len(names))
	for i, name := range names {
		if i > 0 && names[i-1] == name {
			continue // deduplicate
		}
		parts = append(parts, name, d.RelationDigest(name))
	}
	return hashParts(parts)
}

// BlockDigests returns rel's per-block content digests keyed by
// Fact.BlockID, or nil when the relation is absent. The map is built and
// memoized on first use; after that, a mutation re-hashes only the block it
// touches. Two blocks have equal digests iff they hold the same fact set
// (up to SHA-256 collision), regardless of insertion order — this is the
// primitive the shard fingerprints of delta re-solve are composed from.
// The returned map is shared and must be treated as read-only; read it only
// from databases that are not being concurrently mutated (published
// snapshots are immutable and always safe).
func (d *DB) BlockDigests(rel string) map[string]string {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.blockDigestsOf()
}

// BlockOrdinals returns rel's block structure without building a string
// or a block slice: ords[k] is the block ordinal of the k-th fact of rel
// (RelationFacts order, which is Facts() order filtered to rel) and
// bids[o] is the block ID (Fact.BlockID) of ordinal o. Both slices are
// shared and must be treated as read-only; nil when rel is absent.
func (d *DB) BlockOrdinals(rel string) (ords []int32, bids []string) {
	r, ok := d.rels[rel]
	if !ok {
		return nil, nil
	}
	return r.ords, r.blockOrder
}

// RelationFacts returns the facts of the given relation in insertion order
// as a shared slice. The caller must not modify it; use FactsOf for an
// owned copy. Stable: repeated calls return the same backing array until
// the relation is mutated.
func (d *DB) RelationFacts(rel string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.facts
}

// RelationSize returns the number of facts of the given relation without
// materializing them.
func (d *DB) RelationSize(rel string) int {
	r, ok := d.rels[rel]
	if !ok {
		return 0
	}
	return len(r.facts)
}

// BlocksOf returns the blocks of the given relation in first-insertion
// order, as shared slices the caller must not modify. Memoized per
// relation; a mutation of another relation leaves it untouched.
func (d *DB) BlocksOf(rel string) [][]Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.blockListOf()
}

// BlockView returns the block of the given fact as a shared slice the
// caller must not modify; use Block for an owned copy.
func (d *DB) BlockView(f Fact) []Fact {
	r, ok := d.rels[f.Rel]
	if !ok {
		return nil
	}
	return r.blockOf(f)
}

// FactsAt returns the facts of rel whose argument at position pos equals
// value, in insertion order, as a shared slice the caller must not modify.
// It returns nil when pos is out of range for the relation's arity. This is
// the per-(relation, position) posting-list index consulted by embedding
// search when an atom has any determined position short of its full key.
func (d *DB) FactsAt(rel string, pos int, value string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.postingsOf()[postingKey(pos, value)]
}
