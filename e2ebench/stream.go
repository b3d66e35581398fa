package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/solver"
)

// rng is splitmix64: a tiny deterministic generator, cheap enough to
// derive one per request so that request i depends only on (seed, i).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) int63() int64   { return int64(r.next() >> 1) }

// instanceSeed draws every workload's base instances and the hosted seed
// DB. It is the same for every run seed, so the cost of the work does not
// change with the seed; the run seed picks the request stream: which
// instances are sent, in what order, and under which renaming.
const instanceSeed = 1

func newRNG(seed int64, i int) *rng {
	r := &rng{s: uint64(seed)*0xd1b54a32d192ed03 ^ uint64(i)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

// instance is one base CERTAINTY(q) instance with its expected answer.
// Requests use renamed copies: relation names get a tag and constants a
// salt. Certainty is invariant under injective renaming of relations and
// constants (the queries have no constants), so every copy has the base
// instance's verdict and class while missing every server cache keyed on
// the text.
type instance struct {
	family  string
	q       cq.Query
	class   string
	facts   []fact
	dom     []string // the base instance's constants; fact args index it
	certain bool
}

// fact is a base fact whose arguments are indexes into instance.dom.
type fact struct {
	rel    string
	keyLen int
	args   []int
}

type opKind int

const (
	opSolve opKind = iota
	opHostedSolve
	opBatch
	opClassify
	opCompile
	opWrite
)

// item names one renamed copy of a base instance: tag 0 keeps the relation
// names, salt 0 keeps the constants.
type item struct {
	inst int
	tag  int
	salt uint64
}

// op is one generated request. For writes, write is the write's index in
// the stream (even: delete the toggle fact of component comp; odd: insert
// it back). Write k is request 5k+4, so the insert of a pair is sent five
// requests after its delete.
type op struct {
	kind    opKind
	items   []item
	dialect string
	write   int
	comp    int
}

// request is the wire form of an op.
type request struct {
	method, path, accept string
	body                 []byte
}

// workload is a deterministic request stream plus everything needed to
// check its answers.
type workload struct {
	name  string
	seed  int64
	insts []instance
	gen   func(i int) op
	host  *hosted // hosted-delta only
}

func relName(r string, tag int) string {
	if tag == 0 {
		return r
	}
	return r + "_q" + strconv.Itoa(tag)
}

// constName renames constant k of an instance with n constants under salt:
// distinct (salt, k) pairs get distinct names, about as short as the base
// instance's own.
func (in *instance) constName(k int, salt uint64) string {
	if salt == 0 {
		return in.dom[k]
	}
	return "c" + strconv.FormatUint(salt*uint64(len(in.dom))+uint64(k), 36)
}

func queryText(q cq.Query, tag int) string {
	atoms := make([]cq.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		a.Rel = relName(a.Rel, tag)
		atoms[i] = a
	}
	return cq.NewQuery(atoms...).String()
}

func (in *instance) dbText(tag int, salt uint64) string {
	var b strings.Builder
	args := make([]string, 0, 8)
	for _, f := range in.facts {
		args = args[:0]
		for _, a := range f.args {
			args = append(args, in.constName(a, salt))
		}
		b.WriteString(db.Fact{Rel: relName(f.rel, tag), KeyLen: f.keyLen, Args: args}.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshalled
	}
	return b
}

// request renders op o. It is a pure function of the op, so the stream a
// seed produces is byte-identical on every run.
func (w *workload) request(o op) request {
	switch o.kind {
	case opSolve:
		it := o.items[0]
		in := &w.insts[it.inst]
		return request{method: "POST", path: "/v1/solve", body: mustJSON(server.SolveRequest{
			Query: queryText(in.q, it.tag), DB: in.dbText(it.tag, it.salt)})}
	case opHostedSolve:
		return request{method: "POST", path: "/v1/solve", body: mustJSON(server.SolveRequest{
			Query: w.host.queries[o.items[0].inst].String()})}
	case opBatch:
		items := make([]server.BatchSolveItem, len(o.items))
		for k, it := range o.items {
			in := &w.insts[it.inst]
			items[k] = server.BatchSolveItem{Query: queryText(in.q, it.tag), DB: in.dbText(it.tag, it.salt)}
		}
		return request{method: "POST", path: "/v1/solve/batch", accept: "application/x-ndjson",
			body: mustJSON(server.BatchSolveRequest{Items: items})}
	case opClassify:
		it := o.items[0]
		return request{method: "POST", path: "/v1/classify", body: mustJSON(server.ClassifyRequest{
			Query: queryText(w.insts[it.inst].q, it.tag)})}
	case opCompile:
		it := o.items[0]
		return request{method: "POST", path: "/v1/compile", body: mustJSON(server.CompileRequest{
			Query: queryText(w.insts[it.inst].q, it.tag), Dialect: o.dialect})}
	case opWrite:
		method := "DELETE"
		if o.write%2 == 1 {
			method = "POST"
		}
		return request{method: method, path: "/v1/db/facts", body: mustJSON(server.DBMutateRequest{
			Facts: w.host.comps[o.comp].toggle.String()})}
	}
	panic(fmt.Sprintf("unknown op kind %d", o.kind))
}

func (o op) isWrite() bool { return o.kind == opWrite }

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "inline-fo":
		return newInlineFO(seed)
	case "mixed-class":
		return newMixedClass(seed)
	case "hosted-delta":
		return newHostedDelta(seed)
	case "fleet-batch":
		return newFleetBatch(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// classOf is the wire class code the server reports for q.
func classOf(q cq.Query) (string, error) {
	c, err := core.Classify(q)
	if err != nil {
		return "", err
	}
	return c.Class.Code(), nil
}

// oracleFO decides an FO instance with the reference path: the
// interpreted evaluation of the certain first-order rewriting.
func oracleFO(q cq.Query, d *db.DB) (bool, error) {
	phi, err := fo.RewriteAcyclic(q)
	if err != nil {
		return false, err
	}
	return fo.Eval(phi, d)
}

// maxBruteRepairs bounds brute repair enumeration in the oracle; larger
// instances are decided by a direct in-process solve instead.
const maxBruteRepairs = 1 << 10

// oracle decides an instance by brute repair enumeration when it has few
// repairs, and by a direct in-process solve otherwise. It also checks that
// the default step budget suffices, so no request of the workload is
// expected to be cut off.
func oracle(q cq.Query, d *db.DB) (bool, error) {
	v, err := solver.Solve(context.Background(), q, d, solver.WithBudget(defaultBudget))
	if err != nil {
		return false, err
	}
	if v.Outcome == solver.OutcomeUnknown {
		return false, fmt.Errorf("instance of %s does not conclude within %d steps", q, defaultBudget)
	}
	if n := d.NumRepairs(); n.IsInt64() && n.Int64() <= maxBruteRepairs {
		if bf := solver.BruteForce(q, d); bf != v.Result.Certain {
			return false, fmt.Errorf("solver and brute force disagree on %s", q)
		}
	}
	return v.Result.Certain, nil
}

// defaultBudget is certd's default step budget (-default-budget).
const defaultBudget = 1_000_000

func newInstance(family string, q cq.Query, d *db.DB, decide func(cq.Query, *db.DB) (bool, error)) (instance, error) {
	class, err := classOf(q)
	if err != nil {
		return instance{}, err
	}
	certain, err := decide(q, d)
	if err != nil {
		return instance{}, fmt.Errorf("%s: %w", family, err)
	}
	in := instance{family: family, q: q, class: class, certain: certain}
	ids := map[string]int{}
	for _, f := range d.Facts() {
		cf := fact{rel: f.Rel, keyLen: f.KeyLen}
		for _, a := range f.Args {
			k, ok := ids[a]
			if !ok {
				k = len(in.dom)
				ids[a] = k
				in.dom = append(in.dom, a)
			}
			cf.args = append(cf.args, k)
		}
		in.facts = append(in.facts, cf)
	}
	return in, nil
}

// parallelMap computes fn(0..n-1) on GOMAXPROCS goroutines; the result
// is independent of scheduling.
func parallelMap(n int, fn func(i int) (instance, error)) ([]instance, error) {
	out := make([]instance, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// deck deals the slots 0..n-1 once per block of n consecutive requests,
// in an order drawn from the seed for each block.
type deck struct {
	seed  int64
	n     int
	mu    sync.Mutex
	block int
	perm  []int
}

func newDeck(seed int64, n int) *deck { return &deck{seed: seed, n: n, block: -1} }

func (d *deck) slot(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b := i / d.n; b != d.block {
		r := newRNG(d.seed, -2-b)
		d.perm = make([]int, d.n)
		for k := range d.perm {
			j := r.intn(k + 1)
			d.perm[k], d.perm[j] = d.perm[j], k
		}
		d.block = b
	}
	return d.perm[i%d.n]
}

// ---- inline-fo ----

var inlineFOQueries = []string{"R(x | y), S(y | z)", "R(x | y), S(y | z), T(z | w)"}

const (
	inlineSmallPerQuery = 24
	inlineBigPerQuery   = 4
	inlineRepeatPool    = 64
	inlineDeck          = 20
)

func newInlineFO(seed int64) (*workload, error) {
	w := &workload{name: "inline-fo", seed: seed}
	var small, big []int
	r := newRNG(instanceSeed, -1)
	type job struct {
		q    cq.Query
		emb  int
		seed int64
	}
	var jobs []job
	for _, text := range inlineFOQueries {
		q := cq.MustParseQuery(text)
		for k := 0; k < inlineSmallPerQuery+inlineBigPerQuery; k++ {
			emb := 128
			if k >= inlineSmallPerQuery {
				emb = 1024
				big = append(big, len(jobs))
			} else {
				small = append(small, len(jobs))
			}
			jobs = append(jobs, job{q, emb, r.int63()})
		}
	}
	insts, err := parallelMap(len(jobs), func(i int) (instance, error) {
		j := jobs[i]
		d := gen.RandomDB(j.q, gen.Config{Embeddings: j.emb, Noise: j.emb, Domain: j.emb}, j.seed)
		return newInstance("fo", j.q, d, oracleFO)
	})
	if err != nil {
		return nil, err
	}
	w.insts = insts
	// The repeat pool holds small instances only, so the deck below fixes
	// the size mix of every block of inlineDeck requests exactly.
	pool := make([]item, inlineRepeatPool)
	r = newRNG(seed, -1)
	for k := range pool {
		pool[k] = item{inst: small[r.intn(len(small))], salt: uint64(k + 1)}
	}
	d := newDeck(seed, inlineDeck)
	w.gen = func(i int) op {
		r := newRNG(seed, i)
		switch s := d.slot(i); {
		case s == 0: // 1 in 20 (5%): a fresh emb=1024 instance
			return op{kind: opSolve, items: []item{{inst: big[r.intn(len(big))], salt: freshSalt(i)}}}
		case s <= 4: // 4 in 20 (20%): a repeat
			return op{kind: opSolve, items: []item{pool[r.intn(len(pool))]}}
		default:
			return op{kind: opSolve, items: []item{{inst: small[r.intn(len(small))], salt: freshSalt(i)}}}
		}
	}
	return w, nil
}

// freshSalt is a constant renaming no other request of the run uses;
// salts 1..inlineRepeatPool are the repeat pool's.
func freshSalt(i int) uint64 { return inlineRepeatPool + 1 + uint64(i) }

// ---- mixed-class ----

// family is one of the paper's query families with the size of the
// random databases drawn for it (all well under 1 KB of text).
type family struct {
	name   string
	q      cq.Query
	weight float64
	db     func(q cq.Query, seed int64) *db.DB
}

func randomDB(emb, noise, domain int) func(cq.Query, int64) *db.DB {
	return func(q cq.Query, seed int64) *db.DB {
		return gen.RandomDB(q, gen.Config{Embeddings: emb, Noise: noise, Domain: domain}, seed)
	}
}

func mixedFamilies() []family {
	return []family{
		{"fo", cq.MustParseQuery("R(x | y), S(y | z), T(z | w)"), 0.30, randomDB(6, 6, 6)},
		{"terminal", gen.TerminalPairsQuery(2, true), 0.15, randomDB(4, 1, 3)},
		{"ack", cq.ACk(3), 0.15, randomDB(4, 3, 4)},
		{"ck", cq.Ck(3), 0.15, randomDB(4, 3, 4)},
		{"open", gen.OpenCaseQuery(), 0.10, randomDB(4, 3, 4)},
		{"conp", cq.Q0(), 0.15, func(_ cq.Query, seed int64) *db.DB { return gen.Q0DB(8, 2, 6, seed) }},
	}
}

const (
	mixedPerFamily = 48
	// mixedDeckUnits is how many copies of a family's instances a
	// family of weight 1 puts in the solve deck.
	mixedDeckUnits = 20
	// mixedRenamings is the pool of relation renamings requests draw
	// from: 6 families x 128 canonical queries fit the 1024-entry plan
	// cache. A further 5% of requests use a renaming never seen before.
	mixedRenamings = 128
)

// mixedItems builds the base instances shared by mixed-class and
// fleet-batch. It returns a generator of one random solve item, the FO
// instances, and the solve deck: every instance, repeated in proportion
// to its family's weight.
func mixedItems(w *workload) (func(r *rng, i int) item, []int, []int, error) {
	fams := mixedFamilies()
	byFam := make([][]int, len(fams))
	r := newRNG(instanceSeed, -1)
	var foInsts []int
	type job struct {
		fam  family
		seed int64
	}
	var jobs []job
	for f, fam := range fams {
		for k := 0; k < mixedPerFamily; k++ {
			if fam.name == "fo" {
				foInsts = append(foInsts, len(jobs))
			}
			byFam[f] = append(byFam[f], len(jobs))
			jobs = append(jobs, job{fam, r.int63()})
		}
	}
	insts, err := parallelMap(len(jobs), func(i int) (instance, error) {
		j := jobs[i]
		return newInstance(j.fam.name, j.fam.q, j.fam.db(j.fam.q, j.seed), oracle)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	w.insts = append(w.insts, insts...)
	var solveDeck []int
	for f, fam := range fams {
		for u := 0; u < int(math.Round(fam.weight*mixedDeckUnits)); u++ {
			solveDeck = append(solveDeck, byFam[f]...)
		}
	}
	next := func(r *rng, i int) item {
		x := r.float()
		f := 0
		for ; f < len(fams)-1 && x >= fams[f].weight; f++ {
			x -= fams[f].weight
		}
		return item{inst: byFam[f][r.intn(len(byFam[f]))], tag: renaming(r, i), salt: freshSalt(i)}
	}
	return next, foInsts, solveDeck, nil
}

func renaming(r *rng, i int) int {
	if r.float() < 0.05 {
		return mixedRenamings + 1 + i
	}
	return 1 + r.intn(mixedRenamings)
}

// newMixedClass deals its requests from a deck: the solve deck plus one
// classify or compile request per nine solves, shuffled anew for every
// pass through it. Each pass sends the same work in another order, so the
// mix of a phase does not change with the seed.
func newMixedClass(seed int64) (*workload, error) {
	w := &workload{name: "mixed-class", seed: seed}
	_, foInsts, solveDeck, err := mixedItems(w)
	if err != nil {
		return nil, err
	}
	d := newDeck(seed, len(solveDeck)*10/9)
	w.gen = func(i int) op {
		r := newRNG(seed, i)
		s := d.slot(i)
		if s < len(solveDeck) {
			return op{kind: opSolve, items: []item{{inst: solveDeck[s], tag: renaming(r, i), salt: freshSalt(i)}}}
		}
		s -= len(solveDeck)
		it := item{inst: foInsts[s%len(foInsts)], tag: renaming(r, i)}
		switch s % 3 {
		case 0:
			return op{kind: opClassify, items: []item{it}}
		case 1:
			return op{kind: opCompile, items: []item{it}, dialect: "sql"}
		default:
			return op{kind: opCompile, items: []item{it}, dialect: "datalog"}
		}
	}
	return w, nil
}

// ---- fleet-batch ----

const batchItems = 32

func newFleetBatch(seed int64) (*workload, error) {
	w := &workload{name: "fleet-batch", seed: seed}
	next, _, _, err := mixedItems(w)
	if err != nil {
		return nil, err
	}
	w.gen = func(i int) op {
		r := newRNG(seed, i)
		items := make([]item, batchItems)
		for k := range items {
			items[k] = next(r, i*batchItems+k)
		}
		return op{kind: opBatch, items: items}
	}
	return w, nil
}

// ---- hosted-delta ----

// hostedComponent is one connected component of the hosted database: the
// facts of one query's relations over constants no other component uses.
// Deleting toggle removes a choice from one block.
type hostedComponent struct {
	query          int
	toggle         db.Fact
	certainWith    bool // with toggle present (the seed state)
	certainWithout bool
}

// hosted holds the seed database and per-component verdicts. The queries
// are connected, so q is certain on a disjoint union of components iff it
// is certain on one of them: every expected verdict follows from the
// per-component verdicts, each decided by brute repair enumeration.
type hosted struct {
	queries []cq.Query
	comps   []hostedComponent
	seedDB  string
	// certainComps[j] counts the components on which query j is certain
	// in the seed state.
	certainComps []int
}

// expect is query j's verdict when the toggle facts of the components in
// deleted are absent (none: the seed state).
func (h *hosted) expect(j int, deleted map[int]bool) bool {
	n := h.certainComps[j]
	without := false
	for c := range deleted {
		comp := &h.comps[c]
		if comp.query != j {
			continue
		}
		if comp.certainWith {
			n--
		}
		without = without || comp.certainWithout
	}
	return n > 0 || without
}

// hostedTemplates give, per query, one component's facts over the
// placeholder constants a, b, c, d, e; the last fact is the toggle.
var hostedTemplates = []struct {
	query string
	facts []string
}{
	{"A1(x | y), A2(y | z)", []string{"A1(a | b)", "A2(b | c)", "A1(a | e)"}},
	{"B1(x | y), B2(y | z), B3(z | w)", []string{"B1(a | b)", "B2(b | c)", "B3(c | d)", "B2(e | d)", "B1(a | e)"}},
	{"C0(x | y), C1(y, z | x)", []string{"C0(a | b)", "C1(b, c | a)", "C1(b, c | e)"}},
	{"D1(x | y), D2(y | x)", []string{"D1(a | b)", "D2(b | a)", "D1(a | e)"}},
}

const hostedComponents = 1024

// hostedStride is odd, so it is coprime with hostedComponents and
// consecutive write pairs visit every component before repeating one.
const hostedStride = 389

func newHostedDelta(seed int64) (*workload, error) {
	w := &workload{name: "hosted-delta", seed: seed}
	h := &hosted{}
	w.host = h
	for _, t := range hostedTemplates {
		h.queries = append(h.queries, cq.MustParseQuery(t.query))
	}
	h.certainComps = make([]int, len(h.queries))
	r := newRNG(instanceSeed, -1)
	var seedText strings.Builder
	for c := 0; c < hostedComponents; c++ {
		j := c % len(hostedTemplates)
		t := hostedTemplates[j]
		// Drop a random non-toggle fact from some components so they vary.
		skip := -1
		if r.float() < 0.25 {
			skip = r.intn(len(t.facts) - 1)
		}
		var facts []db.Fact
		for k, text := range t.facts {
			if k == skip {
				continue
			}
			f := db.MustParse(text).Facts()[0]
			for a := range f.Args {
				f.Args[a] = f.Args[a] + strconv.Itoa(c)
			}
			facts = append(facts, f)
		}
		comp := hostedComponent{query: j, toggle: facts[len(facts)-1]}
		with, err := db.FromFacts(facts...)
		if err != nil {
			return nil, err
		}
		without, err := db.FromFacts(facts[:len(facts)-1]...)
		if err != nil {
			return nil, err
		}
		comp.certainWith = solver.BruteForce(h.queries[j], with)
		comp.certainWithout = solver.BruteForce(h.queries[j], without)
		if comp.certainWith {
			h.certainComps[j]++
		}
		h.comps = append(h.comps, comp)
		for _, f := range facts {
			seedText.WriteString(f.String())
			seedText.WriteByte('\n')
		}
	}
	h.seedDB = seedText.String()
	// Write pair p toggles component base+p*hostedStride.
	base := newRNG(seed, -1).intn(len(h.comps))
	d := newDeck(seed, 4*len(h.queries))
	w.gen = func(i int) op {
		// Every fifth request is a write; writes alternate delete and
		// re-insert of one component's toggle fact, so the database size
		// stays constant.
		if i%5 == 4 {
			k := i / 5
			return op{kind: opWrite, write: k, comp: (base + k/2*hostedStride) % len(h.comps)}
		}
		// The other requests read the queries in turn, in an order the
		// deck shuffles per block.
		return op{kind: opHostedSolve, items: []item{{inst: d.slot(i-i/5) % len(h.queries)}}}
	}
	return w, nil
}
