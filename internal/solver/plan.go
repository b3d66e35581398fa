package solver

import (
	"context"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
)

// Plan is the immutable compiled decision strategy for one query: the
// classification, the method Solve would select, the projection
// simplification (with its reusable database rewriter) when it applies, and
// the method's static artifacts — the FO rewriting program of Theorem 1,
// the safe certain rewriting of Theorem 6 and the recursion skeleton of
// Theorem 3. All of this depends on the query alone, so it is computed
// once by CompilePlan and reused across databases and goroutines;
// executing a plan returns byte-identical Results and Verdicts to
// Solve/SolveCtx on the same query.
//
// Only the data-dependent work stays at solve time: candidate enumeration
// (which keys on relation cardinalities and the block index) and the
// decision procedures themselves.
type Plan struct {
	// Query is the query the plan was compiled for, exactly as given to
	// CompilePlan.
	Query cq.Query
	// Key is Query's canonical key; the plan cache keys on it, so queries
	// equal up to variable renaming and atom reordering share a plan.
	Key string
	// Class is the paper classification of Query.
	Class core.Class
	// Method is the decision procedure the plan executes — the method of
	// the simplified query when the projection simplification moved the
	// instance into a polynomial class.
	Method Method

	cls        core.Classification
	simplified *Simplification
	execQ      cq.Query            // the query actually dispatched (== Query unless simplified)
	execCls    core.Classification // its classification
	rewriteDB  func(*db.DB) (*db.DB, error)
	foProg     *FOProgram        // compiled Theorem 1 program when Method == MethodFO
	safePhi    fo.Formula        // Theorem 6 rewriting when Method == MethodSafeRewriting
	safeProg   *fo.Compiled      // safePhi compiled to the closure/interned trees
	terminal   *terminalSkeleton // Theorem 3 recursion when Method == MethodTerminal
}

// CompilePlan classifies q, resolves the method Solve would dispatch to
// (including the projection-simplification attempt on non-polynomial
// classes), and precompiles the method's static artifacts. It fails exactly
// where Solve would fail before touching any database: on unclassifiable
// queries and on rewriting-compilation errors.
func CompilePlan(q cq.Query) (*Plan, error) {
	cls, err := core.Classify(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Query:   q,
		Key:     cq.CanonicalKey(q),
		Class:   cls.Class,
		cls:     cls,
		execQ:   q,
		execCls: cls,
	}
	if !cls.Class.InP() {
		if q2, rewrite, rep := simplifyProjection(q); rep != nil {
			if cls2, err2 := core.Classify(q2); err2 == nil && cls2.Class.InP() {
				p.simplified = rep
				p.rewriteDB = rewrite
				p.execQ = q2
				p.execCls = cls2
			}
		}
	}
	switch p.execCls.Class {
	case core.ClassFO:
		if p.execCls.Graph == nil {
			// Cyclic hypergraph but safe: compile the Theorem 6 rewriting.
			p.Method = MethodSafeRewriting
			phi, err := fo.RewriteSafe(p.execQ)
			if err != nil {
				return nil, err
			}
			p.safePhi = phi
			if prog, err := fo.Compile(phi); err == nil {
				p.safeProg = prog
			}
		} else {
			p.Method = MethodFO
			prog, err := CompileFO(p.execQ)
			if err != nil {
				return nil, err
			}
			p.foProg = prog
		}
	case core.ClassPTimeTerminal:
		p.Method = MethodTerminal
		p.terminal = compileTerminal(p.execQ)
	case core.ClassPTimeACk:
		p.Method = MethodACk
	case core.ClassPTimeCk:
		p.Method = MethodCk
	default:
		p.Method = MethodFalsifying
	}
	return p, nil
}

// Classification returns the full classification of the plan's query.
func (p *Plan) Classification() core.Classification { return p.cls }

// Solve decides db ∈ CERTAINTY(q) for the plan's query, mirroring Solve but
// with all per-query work already done.
func (p *Plan) Solve(d *db.DB) (Result, error) {
	v, err := p.SolveCtx(context.Background(), d, Options{})
	if err != nil {
		return Result{}, err
	}
	if v.Err != nil {
		return Result{}, v.Err
	}
	return v.Result, nil
}

// SolveCtx is the resource-governed execution of the plan, mirroring
// SolveCtx over the precompiled artifacts: same governor wiring, same panic
// containment, same graceful degradation on cut-off exponential searches,
// and byte-identical Verdicts. Traced solves record the same span tree as
// the uncompiled path minus the classify span (classification was paid at
// compile time), with a plan=compiled attribute on the root.
func (p *Plan) SolveCtx(ctx context.Context, d *db.DB, opts Options) (Verdict, error) {
	ctx, root := obs.StartSpan(ctx, "solve")
	root.SetAttr("plan", "compiled")
	g := govern.New(ctx, govern.Options{Budget: opts.Budget, Timeout: opts.Timeout, Fault: opts.Fault})
	defer g.Close()
	gctx := g.Attach()
	var v Verdict
	err := govern.Safe(func() error {
		var innerErr error
		v, innerErr = p.solveGoverned(gctx, g, d, opts)
		return innerErr
	})
	endSolveSpan(root, g, v, err)
	if err != nil {
		return Verdict{}, err
	}
	return v, nil
}

// solveGoverned mirrors solveGoverned over the plan's precompiled
// simplification decision.
func (p *Plan) solveGoverned(ctx context.Context, g *govern.Governor, d *db.DB, opts Options) (Verdict, error) {
	if p.rewriteDB != nil {
		d2, err := p.rewriteDB(d)
		if err != nil {
			return Verdict{}, err
		}
		v, err := dispatchGoverned(ctx, g, p.execQ, d2, p.execCls, opts, p)
		if err != nil {
			return Verdict{}, err
		}
		v.Result.Classification = p.cls
		v.Result.Simplified = p.simplified
		v.Result.SimplifiedClass = p.execCls.Class
		return v, nil
	}
	return dispatchGoverned(ctx, g, p.execQ, d, p.execCls, opts, p)
}
