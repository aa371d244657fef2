package gp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
)

// SweepPlan accelerates the per-period posterior sweep over a fixed
// control grid for a group of GPs that share one kernel. It exploits the
// grid's structure: every candidate in a period shares the same context,
// the grid never changes, and the anisotropic squared distance of paper
// eq. 5 decomposes additively per dimension. The plan therefore
// precomputes, per basis row and per control dimension, the squared scaled
// distances to every grid level once at observe-time; a period's
// cross-covariance column then costs one table lookup per control
// dimension plus a per-basis-row context scalar, instead of re-deriving
// O(d) distances per (basis row, candidate) pair.
//
// Group contract: the members have the same kernel type and bitwise-equal
// length scales, and they were fed the same inputs — only their noise
// variances and targets differ, as for EdgeBOL's cost, delay and mAP GPs
// (Algorithm 1). They therefore share one basis: the training rows on the
// exact engine, the inducing set on the sparse one (basis admission depends
// only on the kernel and the inputs). A candidate's cross-covariance column
// k(z*, Z) is thus the same for every member: the plan assembles it once
// per candidate, applies the covariance tail once, and solves a copy
// against each member's own factor — chol/alpha on the exact engine, the
// cholSig + cholKmm dual solve on the sparse one. A one-member plan is the
// degenerate group.
//
// Distance-table layout: tables[d][l][i] holds
//
//	((x_i[ctxDims+d] − levels[d][l]) · inv[ctxDims+d])²
//
// for basis row i — exactly the per-dimension term of the kernel's
// EvalBatch. Cached rows are appended when the basis grows and rebuilt
// from scratch when its generation counter moves (a sliding-window
// eviction renumbers the training rows; an inducing-point swap replaces a
// basis row in place); a hyperparameter refit constructs new GPs and
// therefore a new plan. Every sweep checks that each member's basis length
// and generation still equal member 0's, and panics naming the member that
// diverged.
//
// Bitwise contract: SweepSubset reproduces each member's PosteriorBatch
// over the enumerated grid points it is given bit for bit, for every
// worker count and any index list. The per-dimension terms are accumulated
// in the same two even/odd chains, in the same order, as the kernel's
// scaledSqDistInv — the context dimensions come first, so the per-period
// context partials are valid prefixes of both chains — and the solve path
// is the same fused tiled solve. Under mean gates the contract holds for
// every mean and for the σ of every candidate that passes; a candidate
// that fails a gate reports σ = +Inf (see MeanGate).
//
// Telemetry: the plan reports through its members' own series (see
// GP.Instrument). Every member's edgebol_gp_sweep_plan_* series counts the
// shared tables, and every member's edgebol_gp_sweep_seconds observes the
// group sweep that produced its posteriors.
//
// Concurrency: like the GP read path, SweepSubset must not run
// concurrently with Add on any member or with another SweepSubset on the
// same plan (it refreshes the distance tables and reuses the plan's
// per-shard scratch); distinct plans over distinct GPs may sweep
// concurrently, and SweepSubset shards its own work internally.
type SweepPlan struct {
	members []*GP
	ctxDims int
	tail    kernelTail
	inv     []float64   // reciprocal length scales, one per feature dim
	levels  [][]float64 // per control dimension, the grid level values
	size    int         // grid cardinality Π len(levels[d])

	// evens/odds partition the control dimensions by feature-dim parity,
	// matching the two accumulation chains of scaledSqDistInv.
	evens, odds []int

	tables   [][][]float64
	rows     int    // basis rows currently tabulated
	basisGen uint64 // basis generation the tables were built against

	// c0/c1 are the per-period context partials: the even/odd chain
	// prefixes over the context dimensions, one entry per basis row.
	c0, c1 []float64
	// alphas holds each member's mean weights for the current sweep.
	alphas [][]float64
	// shards holds one scratch set per sweep worker.
	shards []sweepShard
}

// kernelTail identifies the covariance tail κ(d²) applied to the
// tabulated squared distances; the expressions are copied verbatim from
// the corresponding EvalBatch implementations.
type kernelTail int

const (
	tailMatern32 kernelTail = iota
	tailMatern52
	tailRBF
)

// sweepKernel returns the length scales and covariance tail of one of the
// package's stationary kernels, or an error naming a foreign kernel's type.
func sweepKernel(k Kernel) ([]float64, kernelTail, error) {
	switch k := k.(type) {
	case *Matern32:
		return k.LengthScales, tailMatern32, nil
	case *Matern52:
		return k.LengthScales, tailMatern52, nil
	case *RBF:
		return k.LengthScales, tailRBF, nil
	}
	return nil, 0, fmt.Errorf("requires a package kernel, got %T", k)
}

// NewSweepPlan builds a sweep plan for a group of GPs over the grid whose
// control dimensions take the given level values (feature order, after
// the ctxDims context dimensions). The grid is enumerated with the last
// control dimension fastest — the order core.GridSpec.Enumerate uses — and
// candidate features must equal the level values bitwise (core guarantees
// this by deriving both from the same GridSpec).
//
// The members must share one kernel type, bitwise-equal length scales,
// one engine, and one basis (see the type comment). Errors name the
// member at fault: a nil member, a kernel that is not one of the package's
// stationary kernels (by type), a kernel or length scale that differs from
// member 0's, a basis that differs in engine, length or generation, or
// dimensions inconsistent with the grid.
func NewSweepPlan(members []*GP, ctxDims int, levels [][]float64) (*SweepPlan, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("gp: SweepPlan needs at least one GP")
	}
	var ls []float64
	var tail kernelTail
	for k, g := range members {
		if g == nil {
			return nil, fmt.Errorf("gp: SweepPlan member %d is nil", k)
		}
		mls, mtail, err := sweepKernel(g.kernel)
		if err != nil {
			return nil, fmt.Errorf("gp: SweepPlan member %d %w", k, err)
		}
		if k == 0 {
			ls, tail = mls, mtail
			continue
		}
		lead := members[0]
		if mtail != tail {
			return nil, fmt.Errorf("gp: SweepPlan member %d kernel %T differs from member 0's %T", k, g.kernel, lead.kernel)
		}
		if err := sameLengthScales(mls, ls); err != nil {
			return nil, fmt.Errorf("gp: SweepPlan member %d %w", k, err)
		}
		if (g.sp != nil) != (lead.sp != nil) {
			return nil, fmt.Errorf("gp: SweepPlan member %d runs the %s engine, member 0 the %s engine",
				k, g.EngineName(), lead.EngineName())
		}
		if g.basisLen() != lead.basisLen() || g.basisGen() != lead.basisGen() {
			return nil, fmt.Errorf("gp: SweepPlan member %d basis (%d rows, generation %d) differs from member 0's (%d rows, generation %d)",
				k, g.basisLen(), g.basisGen(), lead.basisLen(), lead.basisGen())
		}
	}
	if ctxDims < 0 {
		return nil, fmt.Errorf("gp: negative context dimension count %d", ctxDims)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("gp: SweepPlan needs at least one control dimension")
	}
	if ctxDims+len(levels) != len(ls) {
		return nil, fmt.Errorf("gp: %d context + %d control dimensions do not match the members' kernel dimension %d",
			ctxDims, len(levels), len(ls))
	}
	size := 1
	for d, lv := range levels {
		if len(lv) == 0 {
			return nil, fmt.Errorf("gp: control dimension %d has no levels", d)
		}
		size *= len(lv)
	}
	p := &SweepPlan{
		members: append([]*GP(nil), members...),
		ctxDims: ctxDims,
		tail:    tail,
		inv:     make([]float64, len(ls)),
		levels:  make([][]float64, len(levels)),
		size:    size,
		tables:  make([][][]float64, len(levels)),
		alphas:  make([][]float64, len(members)),
	}
	for i, l := range ls {
		//edgebol:allow nanguard -- length scales are validated positive by checkLengthScales at construction
		p.inv[i] = 1 / l
	}
	for d, lv := range levels {
		p.levels[d] = append([]float64(nil), lv...)
		p.tables[d] = make([][]float64, len(lv))
		if (ctxDims+d)%2 == 0 {
			p.evens = append(p.evens, d)
		} else {
			p.odds = append(p.odds, d)
		}
	}
	lead := members[0]
	p.basisGen = lead.basisGen()
	p.rows = lead.basisLen()
	p.appendRows(0, p.rows)
	for _, g := range p.members {
		g.met.planRows.Set(float64(p.rows))
	}
	return p, nil
}

// sameLengthScales reports, as an error fragment, how a member's length
// scales ls differ from member 0's lead: in count or in any value's bits.
func sameLengthScales(ls, lead []float64) error {
	if len(ls) != len(lead) {
		return fmt.Errorf("has %d length scales, member 0 has %d", len(ls), len(lead))
	}
	for i := range ls {
		if math.Float64bits(ls[i]) != math.Float64bits(lead[i]) {
			return fmt.Errorf("length scale %d is %v, member 0's is %v", i, ls[i], lead[i])
		}
	}
	return nil
}

// GridSize returns the grid cardinality the plan sweeps.
func (p *SweepPlan) GridSize() int { return p.size }

// appendRows tabulates basis rows [from, to) into every distance table —
// training rows on the exact engine, inducing rows on the sparse one.
func (p *SweepPlan) appendRows(from, to int) {
	lead := p.members[0]
	dim := lead.dim
	bxs := lead.basisXs()
	for d, lv := range p.levels {
		f := p.ctxDims + d
		invf := p.inv[f]
		for li, level := range lv {
			tab := p.tables[d][li]
			for i := from; i < to; i++ {
				t := (bxs[i*dim+f] - level) * invf
				tab = append(tab, t*t)
			}
			p.tables[d][li] = tab
		}
	}
}

// basisLen returns the members' common basis length, panicking with the
// first member whose basis length or generation diverged from member 0's:
// a diverged member would be solved against columns of another basis.
func (p *SweepPlan) basisLen() int {
	lead := p.members[0]
	n, gen := lead.basisLen(), lead.basisGen()
	for k, g := range p.members[1:] {
		if g.basisLen() != n || g.basisGen() != gen {
			panic(fmt.Sprintf("gp: SweepPlan member %d basis (%d rows, generation %d) diverged from member 0's (%d rows, generation %d)",
				k+1, g.basisLen(), g.basisGen(), n, gen))
		}
	}
	return n
}

// sync brings the distance tables up to date with the members' common
// basis of n rows: growth (new observations, or basis insertions under the
// sparse engine) appends rows; a moved basis generation — an eviction
// renumbering the training rows, or an inducing-point swap replacing a
// basis row in place — rebuilds every table from scratch.
func (p *SweepPlan) sync(n int) {
	gen := p.members[0].basisGen()
	switch {
	case gen != p.basisGen || n < p.rows:
		for d := range p.tables {
			for li := range p.tables[d] {
				p.tables[d][li] = p.tables[d][li][:0]
			}
		}
		p.appendRows(0, n)
		p.basisGen = gen
		for _, g := range p.members {
			g.met.planBuilds.Inc()
		}
	case n > p.rows:
		p.appendRows(p.rows, n)
		for _, g := range p.members {
			g.met.planRefreshes.Inc()
		}
	}
	p.rows = n
	for _, g := range p.members {
		g.met.planRows.Set(float64(n))
	}
}

// contextPartials computes the per-period context partials: the even/odd
// accumulation chains of scaledSqDistInv restricted to the context
// dimensions, one entry per basis row, into the plan's reused buffers.
// Because the context dimensions precede the control dimensions, each
// partial is the exact floating-point prefix of its chain.
func (p *SweepPlan) contextPartials(ctx []float64, n int) (c0, c1 []float64) {
	p.c0, p.c1 = growFloats(p.c0, n), growFloats(p.c1, n)
	c0, c1 = p.c0, p.c1
	lead := p.members[0]
	dim := lead.dim
	bxs := lead.basisXs()
	for i := 0; i < n; i++ {
		row := bxs[i*dim : i*dim+p.ctxDims]
		var s0, s1 float64
		for j, x := range row {
			t := (x - ctx[j]) * p.inv[j]
			if j%2 == 0 {
				s0 += t * t
			} else {
				s1 += t * t
			}
		}
		c0[i], c1[i] = s0, s1
	}
	return c0, c1
}

// MeanGate is a necessary condition on one member's posterior mean that
// a candidate must meet for its variance to be worth solving. It passes
// when
//
//	Lo <= μ + Offset && μ + Offset <= Hi
//
// evaluated exactly as written: μ + Offset rounded once, then both
// comparisons (a NaN fails). Member indexes the plan's members, in the
// order given to NewSweepPlan. A caller whose acceptance test has the
// form μ + f(σ) ≤ Hi (or ≥ Lo) with f non-decreasing in σ ≥ 0 sets
// Offset = f(0), written as the same floating-point expression its test
// evaluates: rounding is monotone, so a failed gate proves the test fails
// at every σ and the variance cannot change the caller's verdict.
type MeanGate struct {
	Member         int
	Offset, Lo, Hi float64
}

// gatesPass reports whether output j's means meet every gate.
//
//edgebol:hot
func gatesPass(gates []MeanGate, mu [][]float64, j int) bool {
	for _, g := range gates {
		v := mu[g.Member][j] + g.Offset
		if !(v >= g.Lo && v <= g.Hi) {
			return false
		}
	}
	return true
}

// blocksPerWorker is how many blocks of the index list a parallel sweep
// cuts per worker. Workers claim blocks dynamically, so a worker whose
// candidates mostly fail their gates does not idle while another solves;
// the per-column math is independent of who claims what.
const blocksPerWorker = 32

// SweepSubset evaluates every member's posterior at the grid points whose
// flat indices are listed in idxs (each in [0, GridSize()), enumeration
// order), writing member k's means and standard deviations into mu[k] and
// sigma[k] (each of length len(idxs), parallel to idxs; mu and sigma hold
// one slice per member, in the order given to NewSweepPlan). It is the
// plan's only sweep: the full grid is the identity index list, a budgeted
// search passes the candidates it chose. It returns the number of
// candidates whose variances it solved.
//
// Gates: with no gates every candidate is solved, and output j of
// member k equals that member's PosteriorBatch at the features of grid
// point idxs[j] bitwise. Otherwise every candidate's means are computed
// first — one dot product of its column with each member's weights, the
// same ascending chain as the fused solve's mean, so still bitwise the
// PosteriorBatch mean — and only a candidate that passes every gate is
// solved: its σ are again bitwise PosteriorBatch's. A candidate that
// fails a gate gets σ = +Inf for every member. Either way the results are
// bitwise independent of the worker count and of the index list's
// composition: the per-column math does not depend on how columns are
// batched or sharded.
//
// Cost: one column build per candidate, plus one O(n²) solve per solved
// candidate and member (n the basis size). Survivors are collected into
// a per-shard panel of sweepTile columns, so the fused solve runs at full
// panel width however sparse they are. The scratch is owned by the plan,
// one set per shard, and grows amortized with the basis: a sweep at an
// unchanged basis size does not allocate on the serial path.
func (p *SweepPlan) SweepSubset(ctx []float64, idxs []int32, gates []MeanGate, mu, sigma [][]float64, workers int) int {
	if len(ctx) != p.ctxDims {
		panic(fmt.Sprintf("gp: SweepSubset context dimension %d does not match plan's %d", len(ctx), p.ctxDims))
	}
	if len(mu) != len(p.members) || len(sigma) != len(p.members) {
		panic(fmt.Sprintf("gp: SweepSubset got %d, %d output pairs for %d members", len(mu), len(sigma), len(p.members)))
	}
	for k := range mu {
		if len(mu[k]) != len(idxs) || len(sigma[k]) != len(idxs) {
			panic(fmt.Sprintf("gp: SweepSubset member %d output lengths %d, %d do not match %d indices",
				k, len(mu[k]), len(sigma[k]), len(idxs)))
		}
	}
	for _, g := range gates {
		if g.Member < 0 || g.Member >= len(p.members) {
			panic(fmt.Sprintf("gp: SweepSubset gate on member %d of a %d-member plan", g.Member, len(p.members)))
		}
	}
	// Members are instrumented together, so member 0's handle gates the
	// timing for the group.
	if p.members[0].met.sweep != nil {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			for _, g := range p.members {
				g.met.sweep.ObserveDuration(d)
			}
		}()
	}
	n := p.basisLen()
	if n == 0 {
		return p.sweepPrior(idxs, gates, mu, sigma)
	}
	p.sync(n)
	c0, c1 := p.contextPartials(ctx, n)
	for k, g := range p.members {
		p.alphas[k] = g.meanWeights()
	}
	m := len(idxs)
	workers = ResolveWorkers(n*len(p.members), m, workers)
	for len(p.shards) < workers {
		p.shards = append(p.shards, sweepShard{})
	}
	for w := 0; w < workers; w++ {
		p.shards[w].prepare(p, n)
	}
	if workers <= 1 {
		sh := &p.shards[0]
		p.sweepRange(sh, idxs, 0, m, gates, c0, c1, mu, sigma)
		p.solvePending(sh, mu, sigma)
		return sh.solved
	}
	block := (m + workers*blocksPerWorker - 1) / (workers * blocksPerWorker)
	block = (block + sweepTile - 1) / sweepTile * sweepTile
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sh *sweepShard) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= m {
					break
				}
				p.sweepRange(sh, idxs, lo, min(lo+block, m), gates, c0, c1, mu, sigma)
			}
			p.solvePending(sh, mu, sigma)
		}(&p.shards[w])
	}
	wg.Wait()
	solved := 0
	for w := 0; w < workers; w++ {
		solved += p.shards[w].solved
	}
	return solved
}

// sweepPrior fills the outputs of an empty basis: every member's prior
// mean 0 and σ = √prior, or σ = +Inf where a gate fails. It returns the
// number of candidates that passed.
func (p *SweepPlan) sweepPrior(idxs []int32, gates []MeanGate, mu, sigma [][]float64) int {
	for k, g := range p.members {
		//edgebol:allow nanguard -- prior variance is positive by the Kernel contract (Prior is k(x,x) > 0)
		prior := math.Sqrt(g.kernel.Prior())
		for j := range idxs {
			mu[k][j] = 0
			sigma[k][j] = prior
		}
	}
	solved := 0
	for j := range idxs {
		if gatesPass(gates, mu, j) {
			solved++
			continue
		}
		for k := range sigma {
			sigma[k][j] = math.Inf(1)
		}
	}
	return solved
}

// meanWeights returns the vector whose dot product with a candidate's
// cross-covariance column is the posterior mean: α on the exact engine,
// the sparse engine's α against the inducing basis.
func (g *GP) meanWeights() []float64 {
	if g.sp != nil {
		return g.sp.alpha
	}
	return g.alpha
}

// sweepShard is one sweep worker's scratch: the pending panel of up to
// sweepTile assembled columns awaiting the fused solve, with the output
// positions they came from, the copies of it the members' solves consume,
// and the column decode buffers. A plan owns one per worker and reuses it
// across sweeps.
type sweepShard struct {
	solver linalg.FusedSolver
	// cols holds the pending columns contiguously; work is the copy every
	// member but the last solves, work2 the sparse engine's second copy
	// for the K_mm solve.
	cols, work, work2   []float64
	colViews, workViews [sweepTile][]float64
	views2              [sweepTile][]float64
	pos                 [sweepTile]int
	np                  int // pending columns
	solved              int // candidates solved this sweep
	mu, sigma           [sweepTile]float64
	li                  []int
	rowsE, rowsO        [][]float64
}

// prepare sizes the shard's scratch for a basis of n rows and resets its
// per-sweep state. Buffers grow amortized, so a basis that grows by a row
// per period reallocates only every few dozen periods.
func (sh *sweepShard) prepare(p *SweepPlan, n int) {
	if sh.li == nil {
		// The decode buffers are written per candidate and the shards'
		// are allocated back to back: a cache line of spare capacity
		// keeps two workers from writing to one line.
		const pad = 8
		sh.li = make([]int, len(p.levels), len(p.levels)+pad)
		sh.rowsE = make([][]float64, len(p.evens), len(p.evens)+pad)
		sh.rowsO = make([][]float64, len(p.odds), len(p.odds)+pad)
	}
	sh.cols = growFloats(sh.cols, sweepTile*n)
	if len(p.members) > 1 {
		sh.work = growFloats(sh.work, sweepTile*n)
	}
	if p.members[0].sp != nil {
		sh.work2 = growFloats(sh.work2, sweepTile*n)
	}
	for b := 0; b < sweepTile; b++ {
		sh.colViews[b] = sh.cols[b*n : (b+1)*n]
		if sh.work != nil {
			sh.workViews[b] = sh.work[b*n : (b+1)*n]
		}
		if sh.work2 != nil {
			sh.views2[b] = sh.work2[b*n : (b+1)*n]
		}
	}
	sh.np, sh.solved = 0, 0
}

// growFloats returns buf resliced to length size, reallocating with 50 %
// headroom when its capacity is short.
func growFloats(buf []float64, size int) []float64 {
	if cap(buf) < size {
		buf = make([]float64, size, size+size/2)
	}
	return buf[:size]
}

// sweepRange evaluates positions [lo, hi) of idxs into the shard: per
// candidate, decode its level indices and assemble its cross-covariance
// column from the distance tables and context partials — once for the
// whole group — straight into the next free slot of the pending panel.
// With gates, the candidate's means are taken by dot product and a
// candidate failing a gate gets σ = +Inf and releases its slot; every
// other candidate stays pending, and a full panel is solved at once.
//
//edgebol:hot
func (p *SweepPlan) sweepRange(sh *sweepShard, idxs []int32, lo, hi int, gates []MeanGate, c0, c1 []float64, mu, sigma [][]float64) {
	for j := lo; j < hi; j++ {
		p.levelIndices(int(idxs[j]), sh.li)
		for e, d := range p.evens {
			sh.rowsE[e] = p.tables[d][sh.li[d]][:p.rows]
		}
		for o, d := range p.odds {
			sh.rowsO[o] = p.tables[d][sh.li[d]][:p.rows]
		}
		col := sh.colViews[sh.np]
		fillSqDist(col, c0, c1, sh.rowsE, sh.rowsO)
		p.applyTail(col)
		if len(gates) > 0 {
			for k, alpha := range p.alphas {
				mu[k][j] = linalg.Dot(col, alpha)
			}
			if !gatesPass(gates, mu, j) {
				for k := range sigma {
					sigma[k][j] = math.Inf(1)
				}
				continue
			}
		}
		sh.pos[sh.np] = j
		sh.np++
		if sh.np == sweepTile {
			p.solvePending(sh, mu, sigma)
		}
	}
}

// solvePending runs every member's fused solve over the shard's pending
// columns and scatters the posteriors to the positions they came from.
// The fused solve overwrites its right-hand sides, so every member but
// the last solves a copy of the panel. Sparse engine: the columns are
// cross-covariances to the inducing basis and each member solves them
// against both of its m-sized factors, the same dual-solve shape as
// posteriorRange.
//
//edgebol:hot
func (p *SweepPlan) solvePending(sh *sweepShard, mu, sigma [][]float64) {
	m := sh.np
	if m == 0 {
		return
	}
	size := m * p.rows
	last := len(p.members) - 1
	for k, g := range p.members {
		if g.sp != nil {
			copy(sh.work2[:size], sh.cols[:size])
		}
		views := sh.colViews[:m]
		if k < last {
			copy(sh.work[:size], sh.cols[:size])
			views = sh.workViews[:m]
		}
		solveTile(&sh.solver, g, views, sh.views2[:m], sh.mu[:m], sh.sigma[:m])
		for b, j := range sh.pos[:m] {
			mu[k][j] = sh.mu[b]
			sigma[k][j] = sh.sigma[b]
		}
	}
	sh.solved += m
	sh.np = 0
}

// solveTile runs member g's fused solve over one tile of assembled
// columns, writing the tile's posterior means and standard deviations
// into mu and sigma (one entry per column). The columns are overwritten.
// Sparse engine: views2 holds a second copy of the columns for the K_mm
// solve of the predictive variance.
//
//edgebol:hot
func solveTile(solver *linalg.FusedSolver, g *GP, views, views2 [][]float64, mu, sigma []float64) {
	var vsq, vsqNy, muNy [sweepTile]float64
	m := len(mu)
	prior := g.kernel.Prior()
	if g.sp != nil {
		solver.SolveFused(g.sp.cholSig, views, g.sp.alpha, mu, vsq[:m])
		solver.SolveFused(g.sp.cholKmm, views2[:m], g.sp.zeroAlpha[:g.sp.m], muNy[:m], vsqNy[:m])
		for b := 0; b < m; b++ {
			v := prior - vsqNy[b] + vsq[b]
			if v < 0 {
				v = 0
			}
			sigma[b] = math.Sqrt(v)
		}
		return
	}
	solver.SolveFused(g.chol, views, g.alpha, mu, vsq[:m])
	for b := 0; b < m; b++ {
		v := prior - vsq[b]
		if v < 0 {
			v = 0
		}
		sigma[b] = math.Sqrt(v)
	}
}

// levelIndices decodes a grid index into per-dimension level indices,
// last control dimension fastest (the enumeration order of
// core.GridSpec.Enumerate).
//
//edgebol:hot
func (p *SweepPlan) levelIndices(g int, li []int) {
	for d := len(p.levels) - 1; d >= 0; d-- {
		l := len(p.levels[d])
		li[d] = g % l
		g /= l
	}
}

// fillSqDist assembles the squared scaled distances of one candidate
// column from the selected table rows and the context partials, summing
// each chain in ascending dimension order — the floating-point order of
// scaledSqDistInv.
//
//edgebol:hot
func fillSqDist(col, c0, c1 []float64, rowsE, rowsO [][]float64) {
	if len(rowsE) == 2 && len(rowsO) == 3 {
		// EdgeBOL's layout: 3 context + 5 control dimensions put two
		// control terms on the even chain and three on the odd one.
		e0, e1, o0, o1, o2 := rowsE[0], rowsE[1], rowsO[0], rowsO[1], rowsO[2]
		for i := range col {
			col[i] = ((c0[i] + e0[i]) + e1[i]) + (((c1[i] + o0[i]) + o1[i]) + o2[i])
		}
		return
	}
	if len(rowsE) == 2 && len(rowsO) == 2 {
		// 3 context + 4 control dimensions: two control terms per chain.
		e0, e1, o0, o1 := rowsE[0], rowsE[1], rowsO[0], rowsO[1]
		for i := range col {
			col[i] = ((c0[i] + e0[i]) + e1[i]) + ((c1[i] + o0[i]) + o1[i])
		}
		return
	}
	for i := range col {
		s0, s1 := c0[i], c1[i]
		for _, r := range rowsE {
			s0 += r[i]
		}
		for _, r := range rowsO {
			s1 += r[i]
		}
		col[i] = s0 + s1
	}
}

// applyTail maps squared distances to covariances in place, with
// expressions identical to the kernels' EvalBatch.
//
//edgebol:hot
func (p *SweepPlan) applyTail(col []float64) {
	switch p.tail {
	case tailMatern32:
		for i, d2 := range col {
			//edgebol:allow nanguard -- d2 is a squared distance, non-negative by construction
			d := math.Sqrt(3 * d2)
			col[i] = (1 + d) * math.Exp(-d)
		}
	case tailMatern52:
		for i, d2 := range col {
			s2 := 5 * d2
			//edgebol:allow nanguard -- s2 scales a squared distance, non-negative by construction
			d := math.Sqrt(s2)
			col[i] = (1 + d + s2/3) * math.Exp(-d)
		}
	default:
		for i, d2 := range col {
			col[i] = math.Exp(-0.5 * d2)
		}
	}
}
