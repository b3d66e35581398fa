package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fleet"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/plan"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/shard"
	"github.com/cqa-go/certainty/internal/solver"
	"github.com/cqa-go/certainty/internal/wal"
)

// span is one timed call, kept in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into spans, -1 for a request root
	req        int           // request id
}

// tracer records spans from one goroutine. When off, begin and end do
// nothing, which is the untraced replay the overhead is measured against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int
	req   int
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: t.req})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.epoch)
	t.stack = t.stack[:n]
}

// selfTimes reduces spans to per-name self times: a span's duration minus
// the time its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], s.end-s.start-child[i])
	}
	return out
}

// writeSpans writes the recorded spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"name": s.name, "start_ns": int64(s.start), "end_ns": int64(s.end), "parent": s.parent, "req": s.req,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// world is one independent copy of the serving state a request touches:
// the caches of the server layer and, for hosted-delta, a durable store
// and shard memo. The traced and untraced replays each get their own, so
// both see the same cache behaviour.
type world struct {
	classify *core.Cache
	plans    *plan.Cache
	verdicts *lru.Cache[string, bool]
	store    *wal.Store
	memo     *solver.ShardMemo
	solves   map[string][]time.Duration // by family, traced only
	planMiss []bool                     // per plan.get span, traced only
	facts    int                        // facts parsed by db.parse spans, traced only
}

func newWorld(b *bench, dir string) (*world, error) {
	w := &world{
		classify: core.NewCache(),
		plans:    plan.NewCache(0),
		verdicts: lru.New[string, bool](4096),
	}
	if b.w.host != nil {
		st, err := openStore(b, dir)
		if err != nil {
			return nil, err
		}
		w.store = st
		w.memo = solver.NewShardMemo(solver.DefaultShardMemoSize, obs.NewCacheMetrics(obs.NewRegistry(), "shard_memo"))
	}
	return w, nil
}

func openStore(b *bench, dir string) (*wal.Store, error) {
	seed, err := db.Parse(b.w.host.seedDB)
	if err != nil {
		return nil, err
	}
	return wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncBatch, Seed: seed, Registry: obs.NewRegistry()})
}

func queryRels(q cq.Query) []string {
	rels := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		rels[i] = a.Rel
	}
	return rels
}

var solveOpts = solver.Options{Budget: defaultBudget, Timeout: 5 * time.Second}

// replay runs one op through the public calls of each layer, in the order
// the certd handler makes them, with one span per call.
func (wd *world) replay(t *tracer, w *workload, o op, family string) error {
	ctx := context.Background()
	req := w.request(o)
	t.begin("request")
	defer t.end()
	switch o.kind {
	case opSolve, opHostedSolve:
		var r server.SolveRequest
		t.begin("server.decode")
		err := json.Unmarshal(req.body, &r)
		t.end()
		if err != nil {
			return err
		}
		t.begin("cq.parse")
		q, err := cq.ParseQuery(r.Query)
		t.end()
		if err != nil {
			return err
		}
		var d *db.DB
		if o.kind == opHostedSolve {
			d, _ = wd.store.DB()
		} else {
			t.begin("db.parse")
			d, err = db.Parse(r.DB)
			t.end()
			if err != nil {
				return err
			}
			wd.countFacts(t, d)
		}
		t.begin("core.classify")
		cls, err := wd.classify.Classify(q)
		t.end()
		if err != nil {
			return err
		}
		t.begin("cq.canonical_key")
		key := cq.CanonicalKey(q)
		t.end()
		t.begin("db.digest")
		key += "\x00" + d.DigestOf(queryRels(q))
		t.end()
		v, hit := wd.verdicts.Get(key)
		if !hit {
			v, err = wd.solve(t, ctx, q, d, o.kind == opHostedSolve, family)
			if err != nil {
				return err
			}
			wd.verdicts.Put(key, v)
		}
		t.begin("server.encode")
		_, err = json.Marshal(server.SolveResponse{Envelope: server.Envelope{Class: cls.Class}, Verdict: solver.Verdict{
			Outcome: outcomeOf(v), Result: solver.Result{Certain: v, Classification: cls}}})
		t.end()
		return err
	case opClassify, opCompile:
		var r server.CompileRequest
		t.begin("server.decode")
		err := json.Unmarshal(req.body, &r)
		t.end()
		if err != nil {
			return err
		}
		t.begin("cq.parse")
		q, err := cq.ParseQuery(r.Query)
		t.end()
		if err != nil {
			return err
		}
		var resp any
		if o.kind == opClassify {
			t.begin("core.classify")
			cls, err := wd.classify.Classify(q)
			t.end()
			if err != nil {
				return err
			}
			resp = server.ClassifyResponse{Envelope: server.Envelope{Class: cls.Class}, Reason: cls.Reason, InP: cls.Class.InP()}
		} else {
			p, err := wd.planGet(t, ctx, q)
			if err != nil {
				return err
			}
			t.begin("emit." + o.dialect)
			prog, err := p.EmitSQL()
			if o.dialect == "datalog" {
				prog, err = p.EmitDatalog()
			}
			t.end()
			if err != nil {
				return err
			}
			resp = server.CompileResponse{Envelope: server.Envelope{Class: p.Class}, Dialect: o.dialect, Program: prog.Text}
		}
		t.begin("server.encode")
		_, err = json.Marshal(resp)
		t.end()
		return err
	case opWrite:
		var r server.DBMutateRequest
		t.begin("server.decode")
		err := json.Unmarshal(req.body, &r)
		t.end()
		if err != nil {
			return err
		}
		t.begin("db.parse")
		parsed, err := db.Parse(r.Facts)
		t.end()
		if err != nil {
			return err
		}
		wd.countFacts(t, parsed)
		var ins, del []db.Fact
		if req.method == "POST" {
			ins = parsed.Facts()
		} else {
			del = parsed.Facts()
		}
		t.begin("wal.mutate")
		version, applied, err := wd.store.Mutate(ins, del, -1)
		t.end()
		if err != nil {
			return err
		}
		t.begin("shard.invalidate")
		wd.memo.Invalidate(solver.Delta{Ins: ins, Del: del}.TouchedBlocks())
		t.end()
		t.begin("server.encode")
		_, err = json.Marshal(server.DBMutateResponse{Version: version, Applied: applied})
		t.end()
		return err
	case opBatch:
		var r server.BatchSolveRequest
		t.begin("server.decode")
		err := json.Unmarshal(req.body, &r)
		t.end()
		if err != nil {
			return err
		}
		var items []solver.BatchItem
		var keys []string
		for _, it := range r.Items {
			t.begin("cq.parse")
			q, err := cq.ParseQuery(it.Query)
			t.end()
			if err != nil {
				return err
			}
			t.begin("db.parse")
			d, err := db.Parse(it.DB)
			t.end()
			if err != nil {
				return err
			}
			wd.countFacts(t, d)
			t.begin("core.classify")
			_, err = wd.classify.Classify(q)
			t.end()
			if err != nil {
				return err
			}
			t.begin("cq.canonical_key")
			key := cq.CanonicalKey(q)
			t.end()
			t.begin("db.digest")
			key += "\x00" + d.DigestOf(queryRels(q))
			t.end()
			if _, hit := wd.verdicts.Get(key); hit {
				continue
			}
			t.begin("db.intern")
			d.Interned()
			t.end()
			items = append(items, solver.BatchItem{Query: q, DB: d})
			keys = append(keys, key)
		}
		t.begin("solver.batch")
		results := solver.SolveBatch(ctx, items, solver.WithPlanCache(wd.plans), solver.WithOptions(solveOpts))
		t.end()
		t.begin("server.encode")
		var buf bytes.Buffer
		for _, br := range results {
			if br.Err != nil {
				return br.Err
			}
			v := br.Verdict
			if v.Err == nil && v.Outcome != solver.OutcomeUnknown {
				wd.verdicts.Put(keys[br.Index], v.Result.Certain)
			}
			line, err := json.Marshal(server.BatchItemResult{Index: br.Index, Verdict: &v})
			if err != nil {
				return err
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		t.end()
		return nil
	}
	return fmt.Errorf("op kind %d not replayable", o.kind)
}

func (wd *world) countFacts(t *tracer, d *db.DB) {
	if t.on {
		wd.facts += d.Len()
	}
}

func outcomeOf(certain bool) solver.Outcome {
	if certain {
		return solver.OutcomeCertain
	}
	return solver.OutcomeNotCertain
}

func (wd *world) planGet(t *tracer, ctx context.Context, q cq.Query) (*solver.Plan, error) {
	misses := wd.plans.Stats().Misses
	t.begin("plan.get")
	p, err := wd.plans.Get(ctx, q)
	t.end()
	if t.on {
		wd.planMiss = append(wd.planMiss, wd.plans.Stats().Misses != misses)
	}
	return p, err
}

// solve is the admitted part of a solve: plan lookup, then interning and
// the plan's solve, or the memoized sharded solve for the hosted database.
func (wd *world) solve(t *tracer, ctx context.Context, q cq.Query, d *db.DB, hosted bool, family string) (bool, error) {
	p, err := wd.planGet(t, ctx, q)
	if err != nil {
		return false, err
	}
	var v solver.Verdict
	if hosted {
		t.begin("shard.resolve")
		v, _, err = p.SolveShardedMemo(ctx, d, 0, solveOpts, wd.memo)
		t.end()
	} else {
		t.begin("db.intern")
		d.Interned()
		t.end()
		start := time.Now()
		t.begin("solver.solve")
		v, err = p.SolveCtx(ctx, d, solveOpts)
		t.end()
		if t.on && family != "" {
			wd.solves[family] = append(wd.solves[family], time.Since(start))
		}
	}
	if err != nil {
		return false, err
	}
	if v.Outcome == solver.OutcomeUnknown {
		return false, fmt.Errorf("in-process solve of %s did not conclude", q)
	}
	return v.Result.Certain, nil
}

// replayCount fixes how many requests of the stream the in-process replay
// runs, so its exact counts (steps, hit ratios) repeat for a seed.
var replayCount = map[string]int{"inline-fo": 300, "mixed-class": 1500, "hosted-delta": 1500, "fleet-batch": 40}

// runTraced measures the per-layer metrics: one load run at the nominal
// rate bracketed by scrapes, the rate ladder, then the in-process replay.
func (b *bench) runTraced(env map[string]any, warm *phase, nominalDur, ladderDur time.Duration) (*result, error) {
	before, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}
	stopQ := b.sampleQueued()
	nom := b.phase(b.sp.rate, nominalDur)
	queued := stopQ()
	after, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}
	ladder, probes := b.ladder(ladderDur)
	ns := summarize(nom)
	all := summarize(warm, nom)
	lad := summarize(probes...)
	b.stopAll()

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	delta := func(name string, labels ...string) float64 {
		var s float64
		for i := range after {
			s += sumSeries(after[i], name, labels...) - sumSeries(before[i], name, labels...)
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	// Scraped from the load run.
	hits := delta("cache_hits_total", `cache="verdicts"`)
	misses := delta("cache_misses_total", `cache="verdicts"`)
	put("server.verdict_hit_ratio", "ratio", ratio(hits, misses))
	// Little's law: mean queue length over the arrival rate at the queue.
	// Fleet workers see the coordinator's sub-batches, not our batches.
	arrivals := ns.opsPS
	if b.w.name == "fleet-batch" {
		arrivals = delta("certd_batch_total") / nom.elapsed.Seconds()
	}
	put("server.admission_wait_ms", "ms", 1000*safeDiv(queued, arrivals))
	put("server.rejections", "count", delta("certd_rejections_total"))
	put("solver.cutoffs", "count", delta("govern_cutoffs_total"))
	put("shard.reused_ratio", "ratio", ratio(delta("certd_delta_shards_reused_total"), delta("certd_delta_shards_recomputed_total")))
	put("shard.memo_evictions", "count", delta("cache_evictions_total", `cache="shard_memo"`))
	fsyncs := delta("certd_wal_fsync_seconds_count")
	put("wal.fsync_ms", "ms", safeDiv(1000*delta("certd_wal_fsync_seconds_sum"), fsyncs))
	put("wal.records_per_fsync", "ratio", safeDiv(delta("certd_wal_appends_total"), fsyncs))
	put("wal.snapshots", "count", delta("certd_wal_snapshots_total"))
	put("loadgen.lag_p99_ms", "ms", quantile(ns.lags, 0.99))
	readP99, _ := windowedQuantile(nom, 0.99, p99Window)
	put("read_p99_ms", "ms", readP99)
	put("max_verdicts_per_s", "1/s", ladder)
	put("write_p50_ms", "ms", quantile(ns.writes, 0.50))
	put("write_p99_ms", "ms", quantile(ns.writes, 0.99))
	put("failed_pct", "%", ns.failedPct())
	put("degraded_pct", "%", ns.degradedPct())

	// The in-process replay.
	if err := b.replayLayers(put, quantile(ns.reads, 0.5)); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   all.mismatches == 0 && lad.mismatches == 0,
		Attempted: ns.attempted + lad.attempted,
		Failed:    ns.failed + lad.failed,
		Metrics:   m,
	}
	counts := map[string]int{"read_samples": len(ns.reads), "write_samples": len(ns.writes), "ladder_probes": len(probes), "replayed_requests": replayCount[b.w.name]}
	report(os.Stdout, b.w.name+" (trace)", m, nil, counts, env, append(all.reasons, lad.reasons...))
	return res, writeResultFile(b.workdir, res, nil, counts, env)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is max/mean of the per-worker item counts over n workers.
func imbalance(items []float64, n int) float64 {
	if len(items) == 0 {
		return 0
	}
	var sum, mx float64
	for _, x := range items {
		sum += x
		mx = max(mx, x)
	}
	return mx / (sum / float64(n))
}

func (b *bench) scrapeAll() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(b.procs))
	for i, p := range b.procs {
		m, err := scrape(p.base)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// sampleQueued polls every serving process's queue length every 20ms and
// returns a stop function giving the mean total queue length.
func (b *bench) sampleQueued() func() float64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sum float64
	var n int
	var bases []string
	for _, p := range b.procs {
		if p != b.front || b.w.name != "fleet-batch" {
			bases = append(bases, p.base)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var total float64
				for _, base := range bases {
					var h server.HealthResponse
					if _, err := getJSON(base+"/healthz", &h); err == nil {
						total += float64(h.Queued)
					}
				}
				sum += total
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return safeDiv(sum, float64(n))
	}
}

// replayLayers replays the first requests of the workload's stream in
// process: through certd's own handler (untraced), through the layer
// calls with spans, and through the same calls without spans.
func (b *bench) replayLayers(put func(name, unit string, v float64), readP50ms float64) error {
	dir := filepath.Join(b.workdir, "replay")
	var worlds [2]*world
	for i := range worlds {
		wd, err := newWorld(b, filepath.Join(dir, fmt.Sprint("w", i)))
		if err != nil {
			return err
		}
		worlds[i] = wd
	}
	traced, plain := worlds[0], worlds[1]
	traced.solves = map[string][]time.Duration{}
	handler, closeHandler, err := b.inProcessHandler(filepath.Join(dir, "handler"))
	if err != nil {
		return err
	}
	defer closeHandler()

	n := replayCount[b.w.name]
	tr := &tracer{on: true, epoch: time.Now()}
	off := &tracer{}
	var handlerTotal, plainTotal, tracedTotal time.Duration
	var handlerTimes []float64
	var steps = map[string][]int64{}
	var allocBytes uint64
	var allocOps int
	var decomposeUs []float64
	for i := 0; i < n; i++ {
		o := b.w.gen(i)
		family := ""
		if o.kind == opSolve {
			family = b.w.insts[o.items[0].inst].family
		}
		req := b.w.request(o)
		hr := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
		if req.accept != "" {
			hr.Header.Set("Accept", req.accept)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, hr)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: request %d: HTTP %d: %.200s", i, rec.Code, rec.Body.Bytes())
		}
		handlerTotal += d
		handlerTimes = append(handlerTimes, us(d))

		start = time.Now()
		if err := plain.replay(off, b.w, o, family); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
		plainTotal += time.Since(start)

		tr.req = i
		start = time.Now()
		if err := traced.replay(tr, b.w, o, family); err != nil {
			return fmt.Errorf("traced replay request %d: %w", i, err)
		}
		tracedTotal += time.Since(start)

		// Untimed side measurements: exact step counts, allocation of the
		// data-plane calls, and the decomposition on its own.
		if o.kind == opSolve || o.kind == opBatch {
			for _, it := range o.items {
				in := &b.w.insts[it.inst]
				q := cq.MustParseQuery(queryText(in.q, it.tag))
				text := in.dbText(it.tag, it.salt)
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				dd, err := db.Parse(text)
				if err != nil {
					return err
				}
				dd.Interned()
				dd.DigestOf(queryRels(q))
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				allocOps++
				var count int64
				opts := solveOpts
				opts.Fault = func(step int64) error { count = step; return nil }
				if _, err := solver.SolveCtx(context.Background(), q, dd, opts); err != nil {
					return err
				}
				steps[in.family] = append(steps[in.family], count)
			}
		}
		if o.kind == opHostedSolve {
			d, _ := traced.store.DB()
			start := time.Now()
			shard.Decompose(b.w.host.queries[o.items[0].inst], d, 0)
			decomposeUs = append(decomposeUs, us(time.Since(start)))
		}
	}

	if err := writeSpans(filepath.Join(b.workdir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	med := func(name string) float64 {
		xs := self[name]
		if len(xs) == 0 {
			return 0
		}
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = us(x)
		}
		return median(f)
	}
	put("server.decode_us", "us", med("server.decode"))
	put("server.encode_us", "us", med("server.encode"))
	handlerMed := median(handlerTimes)
	put("server.handler_us", "us", handlerMed)
	put("cq.parse_us", "us", med("cq.parse"))
	put("cq.canonical_key_us", "us", med("cq.canonical_key"))
	put("db.parse_us", "us", med("db.parse"))
	put("db.parse_ns_per_fact", "ns", safeDiv(1000*sumUs(self["db.parse"]), float64(traced.facts)))
	put("db.intern_us", "us", med("db.intern"))
	put("db.digest_us", "us", med("db.digest"))
	put("db.alloc_kb_per_op", "KB", safeDiv(float64(allocBytes)/1024, float64(allocOps)))
	put("core.classify_us", "us", med("core.classify"))
	cs := traced.classify.Stats()
	put("core.classify_hit_ratio", "ratio", safeDiv(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	put("plan.get_us", "us", med("plan.get"))
	var compile []float64
	for k, x := range self["plan.get"] {
		if k < len(traced.planMiss) && traced.planMiss[k] {
			compile = append(compile, us(x))
		}
	}
	if len(compile) > 0 {
		put("plan.compile_us", "us", median(compile))
	} else {
		put("plan.compile_us", "us", 0)
	}
	ps := traced.plans.Stats()
	put("plan.hit_ratio", "ratio", safeDiv(float64(ps.Hits), float64(ps.Hits+ps.Misses)))
	for _, fam := range mixedFamilies() {
		f := fam.name
		var xs []float64
		for _, d := range traced.solves[f] {
			xs = append(xs, us(d))
		}
		v := 0.0
		if len(xs) > 0 {
			v = median(xs)
		}
		put("solver.solve_us."+f, "us", v)
		var total int64
		for _, s := range steps[f] {
			total += s
		}
		put("solver.steps."+f, "count", safeDiv(float64(total), float64(len(steps[f]))))
	}
	put("emit.sql_us", "us", med("emit.sql"))
	put("emit.datalog_us", "us", med("emit.datalog"))
	dm := 0.0
	if len(decomposeUs) > 0 {
		dm = median(decomposeUs)
	}
	put("shard.decompose_us", "us", dm)
	put("shard.resolve_us", "us", med("shard.resolve"))
	put("wal.mutate_us", "us", med("wal.mutate"))
	rec := 0.0
	if traced.store != nil {
		if err := traced.store.Close(); err != nil {
			return err
		}
		plain.store.Close()
		start := time.Now()
		st, err := openStore(b, filepath.Join(dir, "w0"))
		if err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		rec = time.Since(start).Seconds()
		st.Close()
	}
	put("wal.recovery_s", "s", rec)
	if err := b.fleetLayer(put); err != nil {
		return err
	}
	put("net.loopback_us", "us", 1000*readP50ms-handlerMed)
	var layers time.Duration
	for name, xs := range self {
		if name == "request" {
			continue
		}
		for _, x := range xs {
			layers += x
		}
	}
	put("trace.coverage_pct", "%", 100*safeDiv(float64(layers), float64(handlerTotal)))
	put("trace.overhead_pct", "%", 100*safeDiv(float64(tracedTotal-plainTotal), float64(plainTotal)))
	return nil
}

func sumUs(xs []time.Duration) float64 {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return us(t)
}

// inProcessHandler is certd's handler with the run's configuration, for
// the untraced in-process handler time.
func (b *bench) inProcessHandler(dir string) (http.Handler, func(), error) {
	cfg := server.Config{Workers: b.conns, Registry: obs.NewRegistry()}
	if b.w.name == "fleet-batch" {
		cfg.Workers, cfg.QueueDepth = 1, 64
	}
	closeFn := func() {}
	if b.w.host != nil {
		st, err := openStore(b, dir)
		if err != nil {
			return nil, nil, err
		}
		cfg.Store = st
		closeFn = func() { st.Close() }
	}
	return server.New(cfg).Handler(), closeFn, nil
}

// fleetBatches are the batches the fleet layer is measured on: the
// fleet-batch stream's own, or for mixed-class its first solve requests
// grouped 32 to a batch, so the fleet layer is measured on a gated
// workload too. Other workloads have none.
func (b *bench) fleetBatches() []request {
	var out []request
	switch b.w.name {
	case "fleet-batch":
		for i := 0; i < fleetBatchCount; i++ {
			out = append(out, b.w.request(b.w.gen(i)))
		}
	case "mixed-class":
		var items []item
		for i := 0; len(out) < fleetBatchCount; i++ {
			if o := b.w.gen(i); o.kind == opSolve {
				items = append(items, o.items[0])
			}
			if len(items) == batchItems {
				out = append(out, b.w.request(op{kind: opBatch, items: items}))
				items = nil
			}
		}
	}
	return out
}

const fleetBatchCount = 20

// fleetLayer sends each of fleetBatches through an in-process coordinator
// over two in-process workers of one slot each, and through one worker
// handler of two slots directly, each side with cold caches. It reports
// the coordinator's extra time (difference of medians), its hedges per
// batch and failovers, the max/mean items per worker, and the time of
// solver.SolveBatch per item on the same batches.
func (b *bench) fleetLayer(put func(name, unit string, v float64)) error {
	reqs := b.fleetBatches()
	if len(reqs) == 0 {
		put("fleet.overhead_ms", "ms", 0)
		put("fleet.hedges_per_request", "ratio", 0)
		put("fleet.imbalance", "ratio", 0)
		put("fleet.failovers", "count", 0)
		put("solver.batch_us_per_item", "us", 0)
		return nil
	}
	var urls []string
	var workerRegs []*obs.Registry
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		ts := httptest.NewServer(server.New(server.Config{Workers: 1, QueueDepth: 64, Registry: reg}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
		workerRegs = append(workerRegs, reg)
	}
	coordReg := obs.NewRegistry()
	c := fleet.New(fleet.Config{Backends: urls, Registry: coordReg})
	c.ProbeNow(context.Background())
	defer c.Close()
	direct := server.New(server.Config{Workers: 2, QueueDepth: 64, Registry: obs.NewRegistry()}).Handler()
	plans := plan.NewCache(0)
	var viaFleet, viaWorker []float64
	var solveTotal time.Duration
	items := 0
	for i, req := range reqs {
		for k, h := range []http.Handler{c.Handler(), direct} {
			hr := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
			hr.Header.Set("Accept", req.accept)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, hr)
			d := ms(time.Since(start))
			if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"error"`) {
				return fmt.Errorf("in-process fleet batch %d: HTTP %d: %.200s", i, rec.Code, rec.Body.Bytes())
			}
			if k == 0 {
				viaFleet = append(viaFleet, d)
			} else {
				viaWorker = append(viaWorker, d)
			}
		}
		var r server.BatchSolveRequest
		if err := json.Unmarshal(req.body, &r); err != nil {
			return err
		}
		batch := make([]solver.BatchItem, len(r.Items))
		for k, it := range r.Items {
			q, err := cq.ParseQuery(it.Query)
			if err != nil {
				return err
			}
			d, err := db.Parse(it.DB)
			if err != nil {
				return err
			}
			batch[k] = solver.BatchItem{Query: q, DB: d}
		}
		start := time.Now()
		solver.SolveBatch(context.Background(), batch, solver.WithPlanCache(plans), solver.WithOptions(solveOpts))
		solveTotal += time.Since(start)
		items += len(batch)
	}
	coord, err := registryValues(coordReg)
	if err != nil {
		return err
	}
	var perWorker []float64
	for _, reg := range workerRegs {
		m, err := registryValues(reg)
		if err != nil {
			return err
		}
		perWorker = append(perWorker, sumSeries(m, "certd_batch_items_total"))
	}
	put("fleet.overhead_ms", "ms", median(viaFleet)-median(viaWorker))
	put("fleet.hedges_per_request", "ratio", sumSeries(coord, "certd_client_hedges_total")/float64(len(reqs)))
	put("fleet.failovers", "count", sumSeries(coord, "certd_fleet_failovers_total"))
	put("fleet.imbalance", "ratio", imbalance(perWorker, len(perWorker)))
	put("solver.batch_us_per_item", "us", us(solveTotal)/float64(items))
	return nil
}

func registryValues(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}
