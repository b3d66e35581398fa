package db

import (
	"fmt"
	"strings"

	"github.com/cqa-go/certainty/internal/cq"
)

// Every database built from a list of facts — parsed text, a snapshot, a
// JSON fact list, FromFacts, and the derived databases of Restrict,
// Subset and RepairDB — goes through load, one bulk pass. Add and
// Remove are the incremental mutations of an existing database.

// Parse reads a database in the textual format: one fact per line (or
// comma-separated), e.g.
//
//	C(PODS, 2016 | Rome)
//	C(PODS, 2016 | Paris)
//	R(PODS | A)
//
// Bare identifiers and numbers denote constants; quoted strings are also
// constants. Variables are not allowed in database files.
//
// Parse is hardened against adversarial input: NUL bytes are rejected up
// front, rows wider than MaxArity and signature conflicts between rows of
// the same relation are reported as errors, and no input can panic. A
// syntax error anywhere takes precedence over a signature conflict, and a
// conflict over an oversized row, as in the query language.
//
// The text is scanned straight into facts: the argument texts of every fact
// share one backing slice, and identifier and number constants are
// substrings of the input.
func Parse(input string) (*DB, error) {
	if i := strings.IndexByte(input, 0); i >= 0 {
		return nil, fmt.Errorf("db: input contains a NUL byte at offset %d", i)
	}
	// Every fact opens a parenthesis and every argument after a fact's first
	// follows a comma or the bar, so these counts bound the slices from
	// above (quoted text and commas between facts only over-count). They are
	// taken before any syntax is checked, so the presize is capped: text of
	// nothing but '(' or ',' must not allocate in proportion to its length.
	// Past the cap the slices grow with the facts actually scanned.
	nFacts := min(strings.Count(input, "("), maxPresizeFacts)
	nArgs := min(strings.Count(input, "(")+strings.Count(input, ",")+strings.Count(input, "|"), 4*maxPresizeFacts)
	facts := make([]Fact, 0, nFacts)
	args := make([]string, 0, nArgs)
	sigs := signatures{}
	var conflict, wide error
	sc := cq.NewScanner(input)
	for sc.Scan() {
		start := len(args)
		args = append(args, sc.Args()...)
		f := Fact{Rel: sc.Rel(), KeyLen: sc.KeyLen(), Args: args[start:len(args):len(args)]}
		if prev, sig, bad := sigs.check(f); bad && conflict == nil {
			// The query language's wording: the text is parsed as one.
			conflict = fmt.Errorf("cq: relation %s used with signatures [%d,%d] and [%d,%d]",
				f.Rel, prev[0], prev[1], sig[0], sig[1])
		}
		if len(f.Args) > MaxArity && wide == nil {
			wide = f.Validate()
		}
		facts = append(facts, f)
	}
	switch {
	case sc.Err() != nil:
		return nil, sc.Err()
	case conflict != nil:
		return nil, conflict
	case wide != nil:
		return nil, wide
	}
	return load(facts), nil
}

// maxPresizeFacts caps how many facts Parse presizes for from character
// counts: about 200 KB of facts and 260 KB of argument headers.
const maxPresizeFacts = 4096

// MustParse is Parse panicking on error.
func MustParse(input string) *DB {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

// FromFacts returns a database containing the given facts. It rejects the
// first invalid fact or signature conflict, exactly as a sequence of Add
// calls would.
func FromFacts(facts ...Fact) (*DB, error) {
	if err := checkFacts(facts); err != nil {
		return nil, err
	}
	return load(append([]Fact(nil), facts...)), nil
}

// MustFromFacts is FromFacts panicking on error, for tests and literals.
func MustFromFacts(facts ...Fact) *DB {
	d, err := FromFacts(facts...)
	if err != nil {
		panic(err)
	}
	return d
}

// signatures maps each relation to the first [arity, keyLen] signature
// seen for it.
type signatures map[string][2]int

// check records f's signature; bad reports a conflict with prev, the
// relation's first signature.
func (s signatures) check(f Fact) (prev, sig [2]int, bad bool) {
	sig = [2]int{len(f.Args), f.KeyLen}
	prev, seen := s[f.Rel]
	if !seen {
		s[f.Rel] = sig
		prev = sig
	}
	return prev, sig, prev != sig
}

// checkFacts reports the first fact that Add would reject: an invalid fact
// or a signature conflict with an earlier fact of its relation.
func checkFacts(facts []Fact) error {
	sigs := signatures{}
	for _, f := range facts {
		if err := f.Validate(); err != nil {
			return err
		}
		if prev, sig, bad := sigs.check(f); bad {
			return fmt.Errorf("db: relation %s used with signatures [%d,%d] and [%d,%d]",
				f.Rel, prev[0], prev[1], sig[0], sig[1])
		}
	}
	return nil
}

// relLoad is one relation's state during load.
type relLoad struct {
	r       *relation
	n       int              // facts of the relation, duplicates included
	blockOf map[string]int32 // block ID → block ordinal
	sizes   []int            // facts per block ordinal, then block end offsets
}

// factSpan locates one fact's encoding in the load arena: it ends at end,
// and its block encoding ends at key.
type factSpan struct {
	rel      *relLoad
	key, end int
}

// load builds a database from valid, signature-consistent facts in one bulk
// pass, dropping duplicates (the first occurrence wins). It takes ownership
// of facts: the slice is compacted in place into the database's global fact
// list.
//
// Each fact is encoded once, into one arena that becomes a single string
// without a copy; its ID and its BlockID (a prefix of the ID) are substrings
// of it. The maps are sized from per-relation counts, each fact's block
// ordinal is recorded (relation.ords), and each relation's blocks are laid
// out in one backing array, grouped by ordinal. Nothing lazy — posting
// lists, digests, the interned view — is built here.
func load(facts []Fact) *DB {
	d := New()
	if len(facts) == 0 {
		return d
	}
	size := 0
	for _, f := range facts {
		size += len(f.Rel) + 1
		for _, a := range f.Args {
			size += len(a) + 4 // length prefix and colon, for arguments under 1000 bytes
		}
	}
	var arena strings.Builder
	arena.Grow(size)
	var one []byte // the current fact's encoding
	spans := make([]factSpan, len(facts))
	var rels []*relLoad
	byName := make(map[string]*relLoad)
	for i, f := range facts {
		cur := byName[f.Rel]
		if cur == nil {
			cur = &relLoad{r: &relation{sig: [2]int{len(f.Args), f.KeyLen}}}
			byName[f.Rel] = cur
			rels = append(rels, cur)
			d.rels[f.Rel] = cur.r
		}
		cur.n++
		var key int
		one, key = appendEncoding(one[:0], f)
		start := arena.Len()
		arena.Write(one)
		spans[i] = factSpan{rel: cur, key: start + key, end: arena.Len()}
	}

	enc := arena.String()
	for _, rl := range rels {
		rl.r.facts = make([]Fact, 0, rl.n)
		rl.r.ids = make(map[string]int, rl.n)
		rl.blockOf = make(map[string]int32, rl.n)
		rl.r.ords = make([]int32, 0, rl.n)
	}
	out, start := facts[:0], 0
	for i, f := range facts {
		sp := spans[i]
		id, bid := enc[start:sp.end], enc[start:sp.key]
		start = sp.end
		rl := sp.rel
		r := rl.r
		if _, dup := r.ids[id]; dup {
			continue
		}
		r.ids[id] = len(r.facts)
		b, known := rl.blockOf[bid]
		if !known {
			b = int32(len(r.blockOrder))
			rl.blockOf[bid] = b
			rl.sizes = append(rl.sizes, 0)
			r.blockOrder = append(r.blockOrder, bid)
			d.blockOrder = append(d.blockOrder, blockRef{rel: f.Rel, bid: bid})
		}
		rl.sizes[b]++
		r.ords = append(r.ords, b)
		r.facts = append(r.facts, f)
		out = append(out, f)
	}
	d.facts = out

	for _, rl := range rels {
		layoutBlocks(rl)
	}
	return d
}

// layoutBlocks groups a loaded relation's facts by block ordinal into one
// backing array (a counting sort, so each block keeps insertion order) and
// points every block at its segment. Segments are capacity-capped, so a
// later insert into one block reallocates it instead of overwriting its
// neighbour.
func layoutBlocks(rl *relLoad) {
	r := rl.r
	backing := make([]Fact, len(r.facts))
	pos := 0
	for b, n := range rl.sizes {
		rl.sizes[b] = pos
		pos += n
	}
	for i, f := range r.facts {
		b := r.ords[i]
		backing[rl.sizes[b]] = f
		rl.sizes[b]++
	}
	r.blocks = make(map[string][]Fact, len(r.blockOrder))
	prev := 0
	for b, bid := range r.blockOrder {
		end := rl.sizes[b]
		r.blocks[bid] = backing[prev:end:end]
		prev = end
	}
}
