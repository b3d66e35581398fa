package main

import (
	"bytes"
	"context"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/solver"
)

func renderStream(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		r := w.request(w.gen(i))
		out[i] = append([]byte(r.method+" "+r.path+" "+r.accept+"\n"), r.body...)
	}
	return out
}

// TestStreamDeterministic pins that a seed alone determines the request
// stream, byte for byte, and that another seed gives another stream.
func TestStreamDeterministic(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			a := renderStream(t, name, 7, 200)
			b := renderStream(t, name, 7, 200)
			c := renderStream(t, name, 8, 200)
			differs := false
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("request %d differs between two streams of seed 7", i)
				}
				differs = differs || !bytes.Equal(a[i], c[i])
			}
			if !differs {
				t.Fatal("seeds 7 and 8 give the same stream")
			}
		})
	}
}

// TestRenamedCopiesKeepVerdict checks the premise of the request
// generator: a renamed copy of a base instance has the base verdict.
func TestRenamedCopiesKeepVerdict(t *testing.T) {
	for _, name := range []string{"inline-fo", "mixed-class"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			o := w.gen(i)
			if o.kind != opSolve {
				continue
			}
			it := o.items[0]
			in := &w.insts[it.inst]
			q := cq.MustParseQuery(queryText(in.q, it.tag))
			d := db.MustParse(in.dbText(it.tag, it.salt))
			v, err := solver.Solve(context.Background(), q, d)
			if err != nil {
				t.Fatal(err)
			}
			if v.Result.Certain != in.certain {
				t.Fatalf("%s request %d: renamed copy certain=%v, base %v", name, i, v.Result.Certain, in.certain)
			}
		}
	}
}

// TestHostedExpectations checks the per-component composition against a
// direct solve of the whole hosted database, in the seed state and with
// one toggle fact deleted.
func TestHostedExpectations(t *testing.T) {
	w, err := newWorkload("hosted-delta", 5)
	if err != nil {
		t.Fatal(err)
	}
	h := w.host
	full := db.MustParse(h.seedDB)
	for c := 0; c < 8; c++ {
		for _, deleted := range []map[int]bool{nil, {c: true}, {c: true, c + 8: true}} {
			d := full.Clone()
			for k := range deleted {
				d.Remove(h.comps[k].toggle)
			}
			for j, q := range h.queries {
				v, err := solver.Solve(context.Background(), q, d)
				if err != nil {
					t.Fatal(err)
				}
				if want := h.expect(j, deleted); v.Result.Certain != want {
					t.Fatalf("query %d, deleted %v: solve says %v, expected %v", j, deleted, v.Result.Certain, want)
				}
			}
		}
	}
}
