package db

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
)

// referenceAdd is the fact-by-fact oracle of the bulk load: New plus one Add
// per fact, stopping at the first rejected fact.
func referenceAdd(facts []Fact) (*DB, error) {
	d := New()
	for _, f := range facts {
		if err := d.Add(f); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// referenceParse is the oracle of Parse: the text parsed as a query, each
// atom then added as a fact.
func referenceParse(input string) (*DB, error) {
	if i := strings.IndexByte(input, 0); i >= 0 {
		return nil, fmt.Errorf("db: input contains a NUL byte at offset %d", i)
	}
	q, err := cq.ParseQuery(input)
	if err != nil {
		return nil, err
	}
	facts := make([]Fact, len(q.Atoms))
	for i, a := range q.Atoms {
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			args[j] = t.Value
		}
		facts[i] = Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}
	}
	return referenceAdd(facts)
}

// sameResult checks that a bulk build and its reference agree on accept or
// reject, with the same error, and on everything an accepted DB exposes.
func sameResult(t *testing.T, what string, got *DB, gotErr error, want *DB, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, reference err = %v", what, gotErr, wantErr)
	}
	if gotErr == nil {
		checkSameDB(t, what, got, want)
	}
}

// checkSameDB compares two databases on facts, blocks, every digest, and
// the interned view: identical symbol ids, columns and block layout.
func checkSameDB(t *testing.T, what string, got, want *DB) {
	t.Helper()
	if !reflect.DeepEqual(got.Facts(), want.Facts()) {
		t.Fatalf("%s: Facts differ:\n%v\nwant\n%v", what, got.Facts(), want.Facts())
	}
	if !reflect.DeepEqual(got.Blocks(), want.Blocks()) {
		t.Fatalf("%s: Blocks differ:\n%v\nwant\n%v", what, got.Blocks(), want.Blocks())
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("%s: Digest %s, want %s", what, g, w)
	}
	rels := append(want.Relations(), "Absent")
	if g, w := got.DigestOf(rels), want.DigestOf(rels); g != w {
		t.Fatalf("%s: DigestOf %s, want %s", what, g, w)
	}
	for _, rel := range rels {
		if g, w := got.BlockDigests(rel), want.BlockDigests(rel); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: BlockDigests(%s) differ", what, rel)
		}
	}
	gi, wi := got.Interned(), want.Interned()
	if gi.Syms.Len() != wi.Syms.Len() {
		t.Fatalf("%s: %d interned symbols, want %d", what, gi.Syms.Len(), wi.Syms.Len())
	}
	for id := 0; id < wi.Syms.Len(); id++ {
		if g, w := gi.Syms.MustString(uint32(id)), wi.Syms.MustString(uint32(id)); g != w {
			t.Fatalf("%s: interned id %d is %q, want %q", what, id, g, w)
		}
	}
	if !reflect.DeepEqual(gi.Domain(), wi.Domain()) {
		t.Fatalf("%s: interned domain %v, want %v", what, gi.Domain(), wi.Domain())
	}
	for _, rel := range want.Relations() {
		g, w := gi.Rel(rel), wi.Rel(rel)
		if !reflect.DeepEqual(g.Cols, w.Cols) || !reflect.DeepEqual(g.ByBlock, w.ByBlock) ||
			!reflect.DeepEqual(g.BlockOff, w.BlockOff) || !reflect.DeepEqual(g.BlockOfFact, w.BlockOfFact) {
			t.Fatalf("%s: interned relation %s differs from the reference", what, rel)
		}
	}
	checkInternedMirrors(t, got)
}

// randomFacts draws a fact list with repeated facts, shared keys (so blocks
// hold several facts) and interleaved relations.
func randomFacts(rng *rand.Rand, n int) []Fact {
	sigs := map[string][2]int{"R": {2, 1}, "S": {3, 2}, "T": {1, 1}, "U": {4, 2}}
	names := []string{"R", "S", "T", "U"}
	facts := make([]Fact, n)
	for i := range facts {
		rel := names[rng.Intn(len(names))]
		sig := sigs[rel]
		args := make([]string, sig[0])
		for p := range args {
			args[p] = fmt.Sprintf("c%d", rng.Intn(5))
		}
		if rng.Intn(10) == 0 {
			args[0] = "q u'o|te,(" // needs quoting in text
		}
		facts[i] = Fact{Rel: rel, KeyLen: sig[1], Args: args}
	}
	return facts
}

// render writes facts as DB text in the given order, one per line.
func render(facts []Fact) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLoadMatchesFactByFact is the differential test of the bulk load: every
// entry point that builds a database from a fact list (Parse, FromFacts,
// ReadSnapshot, UnmarshalJSON, Restrict, Subset, RepairDB) must
// produce the database New plus one Add per fact produces — same facts,
// blocks, digests and interned ids — also after a mutation.
func TestLoadMatchesFactByFact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		facts := randomFacts(rng, rng.Intn(60))
		want, err := referenceAdd(facts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d", trial)

		got, err := FromFacts(facts...)
		sameResult(t, what+" FromFacts", got, err, want, nil)
		got, err = Parse(render(facts))
		sameResult(t, what+" Parse", got, err, want, nil)

		var buf bytes.Buffer
		if err := want.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		got, err = ReadSnapshot(&buf)
		sameResult(t, what+" ReadSnapshot", got, err, want, nil)
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var fromJSON DB
		err = json.Unmarshal(data, &fromJSON)
		sameResult(t, what+" UnmarshalJSON", &fromJSON, err, want, nil)

		keep := func(f Fact) bool { return f.Args[len(f.Args)-1] != "c0" }
		var kept []Fact
		for _, f := range want.Facts() {
			if keep(f) {
				kept = append(kept, f)
			}
		}
		wantKept, _ := referenceAdd(kept)
		checkSameDB(t, what+" Restrict", want.Restrict(keep), wantKept)
		var idx []int
		var in []Fact
		for i, f := range want.Facts() {
			if i%4 != 1 {
				idx = append(idx, i)
				in = append(in, f)
			}
		}
		wantSub, _ := referenceAdd(in)
		checkSameDB(t, what+" Subset", want.Subset(idx), wantSub)
		if len(want.Facts()) > 0 {
			repair, err := want.RepairAt(big.NewInt(rng.Int63n(1<<20) % want.NumRepairs().Int64()))
			if err != nil {
				t.Fatal(err)
			}
			wantRepair, _ := referenceAdd(repair)
			checkSameDB(t, what+" RepairDB", RepairDB(repair), wantRepair)
		}
	}
}

// TestLoadBlockOrderAfterMutation removes the first fact of an early
// multi-fact block from a bulk-loaded DB and its reference: the block keeps
// its place in the block order although its first remaining fact now comes
// after the first fact of a later block, and the interned block ordinals
// must follow the block order, not first occurrence in the facts.
func TestLoadBlockOrderAfterMutation(t *testing.T) {
	text := "R(a | 1)\nR(b | 1)\nR(a | 2)\nS(x | 1)\nR(b | 2)\nR(c | 1)\n"
	got, want := MustParse(text), New()
	for _, f := range MustParse(text).Facts() {
		if err := want.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	checkSameDB(t, "loaded", got, want)
	got.Interned() // build the view before the mutation, so it must be dropped
	first := NewFact("R", 1, "a", "1")
	if !got.Remove(first) || !want.Remove(first) {
		t.Fatal("Remove of a present fact reported false")
	}
	checkSameDB(t, "after Remove", got, want)
	ir := got.Interned().Rel("R")
	if blocks := got.BlocksOf("R"); blocks[0][0].Args[0] != "a" {
		t.Fatalf("block order changed by the removal: %v", blocks)
	}
	if ir.BlockOfFact[0] != 1 || ir.BlockOfFact[1] != 0 {
		t.Fatalf("interned block ordinals %v do not follow the block order", ir.BlockOfFact)
	}
	// Emptying a block shifts the ordinals of the blocks after it.
	if !got.Remove(NewFact("R", 1, "a", "2")) || !want.Remove(NewFact("R", 1, "a", "2")) {
		t.Fatal("Remove of a present fact reported false")
	}
	checkSameDB(t, "after emptying a block", got, want)
	// Adding to an existing block after the removals.
	for _, d := range []*DB{got, want} {
		if err := d.Add(NewFact("R", 1, "c", "9")); err != nil {
			t.Fatal(err)
		}
	}
	checkSameDB(t, "after Add", got, want)
}

// TestLoadRejectsLikeFactByFact: a fact list is rejected at the first fact
// Add would reject, with the same error, and Parse rejects malformed text
// exactly as parsing it as a query and adding each atom would.
func TestLoadRejectsLikeFactByFact(t *testing.T) {
	wide := make([]string, MaxArity+1)
	for i := range wide {
		wide[i] = "a"
	}
	for _, facts := range [][]Fact{
		{{Rel: "R", KeyLen: 1, Args: []string{"a", "b"}}, {Rel: "R", KeyLen: 2, Args: []string{"a", "b"}}},
		{{Rel: "R", KeyLen: 1, Args: []string{"a"}}, {Rel: "S", KeyLen: 0, Args: []string{"a"}}, {Rel: "R", KeyLen: 2, Args: []string{"a", "b"}}},
		{{Rel: "R", KeyLen: 1, Args: []string{"a\x00"}}},
		{{Rel: "", KeyLen: 1, Args: []string{"a"}}},
		{{Rel: "W", KeyLen: 1, Args: wide}},
	} {
		want, wantErr := referenceAdd(facts)
		got, err := FromFacts(facts...)
		sameResult(t, fmt.Sprintf("FromFacts(%v)", facts), got, err, want, wantErr)
	}
	for _, input := range []string{
		"R(a | b)\nR(a, b | c)",
		"R(a)\nR(a | b)",
		"R(a | b)\nR(a, b | c)\nS(",                           // a syntax error wins over a conflict
		"W(" + strings.Join(wide, ", ") + ")\nR(a | b)\nR(a)", // a conflict wins over width
		"R(a | b)\nW(" + strings.Join(wide, ", ") + ")",
		"R(a | b | c)",
		"R(a,\n| b)",
		"R('unterminated | b)",
		"R(a | b) S",
		"R(a \x00 | b)",
		"R(a | b)\n\n# comment\nS(b | 'c\\'d'), T(1.5 | -2)",
	} {
		want, wantErr := referenceParse(input)
		got, err := Parse(input)
		sameResult(t, fmt.Sprintf("Parse(%q)", input), got, err, want, wantErr)
	}
}
