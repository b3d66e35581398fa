package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// target is the certd endpoint the load goes to, reached over at most
// conns keep-alive connections.
type target struct {
	base   string
	client *http.Client
	conns  int
}

func newTarget(base string, conns int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &target{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, conns: conns}
}

// outcome is what one request produced.
type outcome struct {
	lat, lag  time.Duration
	done      time.Duration // completion, from the phase start
	write     bool
	verdicts  int // verdicts served
	degraded  int
	failed    bool
	mismatch  bool
	reason    string
	hosted    bool // hosted read, checked against its version afterwards
	query     int
	version   uint64
	certain   bool
	submitted bool
}

// phase is one open-loop run at a fixed rate over ops [first, first+n).
type phase struct {
	first    int
	out      []outcome
	elapsed  time.Duration // first due time to last completion
	backlog  int           // reads due but not completed when dispatch ended
	wbacklog int           // writes due but not completed when dispatch ended
}

// runPhase sends ops first.. at a fixed arrival rate for dur, from one
// dispatcher. Reads go to tgt.conns senders; writes go, in order, to one
// sender of their own on wtgt, so a slow fsync never holds up a read in
// the generator. Each request is timed from its due time, so time spent
// waiting behind a stalled request of its own lane counts.
func (b *bench) runPhase(first int, rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ph := &phase{first: first, out: make([]outcome, n)}
	ops := make([]op, n)
	reqs := make([]request, n)
	for j := range ops {
		ops[j] = b.w.gen(first + j)
		// Rendered before the clock starts, so building bodies does not
		// compete with the server for CPU during the phase.
		reqs[j] = b.w.request(ops[j])
	}
	interval := time.Duration(float64(time.Second) / rate)
	// The lanes hold every request of the phase, so the dispatcher never
	// blocks on slow senders (that would hide the backlog).
	reads, writes := make(chan int, n), make(chan int, n)
	var readsDone, writesDone atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	send := func(t *target, lane chan int, done *atomic.Int64) {
		defer wg.Done()
		for j := range lane {
			due := start.Add(time.Duration(j) * interval)
			b.do(t, ops[j], reqs[j], &ph.out[j])
			now := time.Now()
			ph.out[j].lat = now.Sub(due)
			ph.out[j].done = now.Sub(start)
			done.Add(1)
		}
	}
	for s := 0; s < b.tgt.conns; s++ {
		wg.Add(1)
		go send(b.tgt, reads, &readsDone)
	}
	wg.Add(1)
	go send(b.wtgt, writes, &writesDone)
	var nReads, nWrites int
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.out[j].lag = time.Since(due)
		ph.out[j].submitted = true
		if ops[j].isWrite() {
			nWrites++
			writes <- j
		} else {
			nReads++
			reads <- j
		}
	}
	ph.backlog = nReads - int(readsDone.Load())
	ph.wbacklog = nWrites - int(writesDone.Load())
	close(reads)
	close(writes)
	wg.Wait()
	for j := range ph.out {
		if ph.out[j].done > ph.elapsed {
			ph.elapsed = ph.out[j].done
		}
	}
	b.checkHosted(ph)
	return ph
}

// do sends one op and checks its response.
func (b *bench) do(t *target, o op, req request, out *outcome) {
	out.write = o.isWrite()
	hr, err := http.NewRequest(req.method, t.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		out.failed, out.reason = true, err.Error()
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.accept != "" {
		hr.Header.Set("Accept", req.accept)
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		out.failed, out.reason = true, "transport: "+err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		out.failed, out.reason = true, "read body: "+err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		out.failed, out.reason = true, fmt.Sprintf("HTTP %d: %.200s", resp.StatusCode, body)
		return
	}
	b.check(o, body, out)
}

// wireVerdict is the part of a verdict the benchmark checks.
type wireVerdict struct {
	Outcome string `json:"outcome"`
	Result  struct {
		Certain bool `json:"certain"`
	} `json:"result"`
	Error *json.RawMessage `json:"error"`
}

type wireSolve struct {
	Class     string      `json:"class"`
	Verdict   wireVerdict `json:"verdict"`
	DBVersion *uint64     `json:"db_version"`
	Program   string      `json:"program"`
	Version   uint64      `json:"version"`
	Applied   int         `json:"applied"`
}

type wireBatchLine struct {
	Index   int          `json:"index"`
	Verdict *wireVerdict `json:"verdict"`
}

func (out *outcome) mismatchf(format string, args ...any) {
	out.failed, out.mismatch = true, true
	out.reason = fmt.Sprintf(format, args...)
}

// checkVerdict compares one served verdict with the expected one. A
// degraded or unknown verdict is not a mismatch; it counts in
// degraded_pct.
func (out *outcome) checkVerdict(v wireVerdict, want bool) {
	out.verdicts++
	if v.Outcome == "unknown" || v.Error != nil {
		out.degraded++
		return
	}
	if v.Result.Certain != want {
		out.mismatchf("verdict certain=%v, want %v", v.Result.Certain, want)
	}
}

func (b *bench) check(o op, body []byte, out *outcome) {
	if o.kind == opBatch {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		seen := make([]bool, len(o.items))
		for sc.Scan() {
			var line wireBatchLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Index < 0 || line.Index >= len(o.items) || seen[line.Index] {
				out.failed, out.reason = true, fmt.Sprintf("bad batch line %.200s", sc.Bytes())
				return
			}
			seen[line.Index] = true
			if line.Verdict == nil {
				out.failed, out.reason = true, fmt.Sprintf("batch item error %.200s", sc.Bytes())
				return
			}
			out.checkVerdict(*line.Verdict, b.w.insts[o.items[line.Index].inst].certain)
		}
		if out.verdicts != len(o.items) {
			out.failed, out.reason = true, fmt.Sprintf("batch answered %d of %d items", out.verdicts, len(o.items))
		}
		return
	}
	var r wireSolve
	if err := json.Unmarshal(body, &r); err != nil {
		out.failed, out.reason = true, "decode response: "+err.Error()
		return
	}
	switch o.kind {
	case opSolve:
		in := &b.w.insts[o.items[0].inst]
		if r.Class != in.class {
			out.mismatchf("class %q, want %q", r.Class, in.class)
			return
		}
		out.checkVerdict(r.Verdict, in.certain)
	case opHostedSolve:
		if r.DBVersion == nil {
			out.failed, out.reason = true, "hosted solve without db_version"
			return
		}
		out.verdicts++
		if r.Verdict.Outcome == "unknown" || r.Verdict.Error != nil {
			out.degraded++
			return
		}
		out.hosted, out.query, out.version, out.certain = true, o.items[0].inst, *r.DBVersion, r.Verdict.Result.Certain
	case opClassify:
		if want := b.w.insts[o.items[0].inst].class; r.Class != want {
			out.mismatchf("class %q, want %q", r.Class, want)
		}
	case opCompile:
		if r.Class != "fo" || r.Program == "" {
			out.mismatchf("compile: class %q, %d bytes of program", r.Class, len(r.Program))
		}
	case opWrite:
		if r.Applied != 1 {
			out.failed, out.reason = true, fmt.Sprintf("write applied %d facts", r.Applied)
			return
		}
		b.writes.Store(r.Version, o)
	}
}

// checkHosted checks hosted reads once every write so far has reported
// its version: the state a read saw is the seed plus every write up to its
// db_version, applied in version order.
func (b *bench) checkHosted(ph *phase) {
	if b.w.host == nil {
		return
	}
	type applied struct {
		version uint64
		deleted map[int]bool // deleted toggle facts after this write
	}
	var writes []applied
	b.writes.Range(func(v, o any) bool {
		writes = append(writes, applied{version: v.(uint64), deleted: map[int]bool{o.(op).comp: o.(op).write%2 == 0}})
		return true
	})
	sort.Slice(writes, func(a, c int) bool { return writes[a].version < writes[c].version })
	state := map[int]bool{}
	for i := range writes {
		for c, del := range writes[i].deleted {
			if del {
				state[c] = true
			} else {
				delete(state, c)
			}
		}
		writes[i].deleted = make(map[int]bool, len(state))
		for c := range state {
			writes[i].deleted[c] = true
		}
	}
	for j := range ph.out {
		out := &ph.out[j]
		if !out.hosted {
			continue
		}
		var deleted map[int]bool
		if out.version != b.seedVersion {
			k := sort.Search(len(writes), func(k int) bool { return writes[k].version >= out.version })
			if k == len(writes) || writes[k].version != out.version {
				out.mismatchf("read at unknown db_version %d", out.version)
				continue
			}
			deleted = writes[k].deleted
		}
		if want := b.w.host.expect(out.query, deleted); out.certain != want {
			out.mismatchf("hosted query %d at version %d: certain=%v, want %v", out.query, out.version, out.certain, want)
		}
	}
}

// summary reduces a phase to the figures the metrics need.
type summary struct {
	reads, writes       []float64 // latencies in ms
	lags                []float64
	attempted, failed   int
	mismatches          int
	verdicts, degraded  int
	reasons             []string
	verdictsPerS, opsPS float64
}

func summarize(phs ...*phase) summary {
	var s summary
	var elapsed time.Duration
	for _, ph := range phs {
		elapsed += ph.elapsed
		for j := range ph.out {
			o := &ph.out[j]
			if !o.submitted {
				continue
			}
			s.attempted++
			s.lags = append(s.lags, ms(o.lag))
			if o.failed {
				s.failed++
				if o.mismatch {
					s.mismatches++
				}
				if len(s.reasons) < 5 {
					s.reasons = append(s.reasons, o.reason)
				}
			}
			if o.write {
				s.writes = append(s.writes, ms(o.lat))
			} else {
				s.reads = append(s.reads, ms(o.lat))
			}
			s.verdicts += o.verdicts
			s.degraded += o.degraded
		}
	}
	sort.Float64s(s.reads)
	sort.Float64s(s.writes)
	sort.Float64s(s.lags)
	if elapsed > 0 {
		s.verdictsPerS = float64(s.verdicts) / elapsed.Seconds()
		s.opsPS = float64(s.attempted) / elapsed.Seconds()
	}
	return s
}

func (s summary) failedPct() float64 {
	if s.attempted == 0 {
		return 0
	}
	return 100 * float64(s.failed) / float64(s.attempted)
}

func (s summary) degradedPct() float64 {
	if s.verdicts == 0 {
		return 0
	}
	return 100 * float64(s.degraded) / float64(s.verdicts)
}
