package core

import (
	"math"
	"testing"

	"repro/internal/gp"
)

// selectOracle is an independent reference for SelectControl. It shares
// nothing with the acquisition engine but the agent's GPs and options: it
// enumerates the grid through GridSpec.Enumerate, evaluates every
// objective at every grid point through the generic gp.PosteriorBatch
// path, and applies Algorithm 1's selection directly over grid-indexed
// arrays — eq. 8 with seed retirement, eq. 9 with the first-index
// tie-break or the SafeOpt rule, the least-violating-seed fallback, and the
// decomposed-cost combination.
type selectOracle struct {
	grid      []Control
	feats     [][]float64
	mu, sigma [numGPs][]float64
	powMu     [2][]float64
	powSigma  [2][]float64
	safe      []bool
}

func newSelectOracle(t testing.TB, g GridSpec) *selectOracle {
	t.Helper()
	grid, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(grid)
	o := &selectOracle{grid: grid, feats: make([][]float64, n), safe: make([]bool, n)}
	for i, x := range grid {
		o.feats[i] = make([]float64, ContextDims+ControlDims)
		x.appendFeatures(o.feats[i][ContextDims:ContextDims])
	}
	for i := range o.mu {
		o.mu[i] = make([]float64, n)
		o.sigma[i] = make([]float64, n)
	}
	for i := range o.powMu {
		o.powMu[i] = make([]float64, n)
		o.powSigma[i] = make([]float64, n)
	}
	return o
}

// selectControl returns the oracle's choice for agent a in context ctx,
// with the diagnostics SelectControl reports. It reads a's GPs and
// options and changes nothing.
func (o *selectOracle) selectControl(a *Agent, ctx Context) (Control, SelectionInfo) {
	cf := ContextFeatures(ctx)
	for _, row := range o.feats {
		copy(row[:ContextDims], cf)
	}
	batch := func(g *gp.GP, mu, sigma []float64) {
		g.PosteriorBatch(o.feats, mu, sigma, gp.BatchOptions{Workers: 1})
	}
	if a.opts.DecomposedCost {
		for i, g := range a.powerGPs {
			batch(g, o.powMu[i], o.powSigma[i])
		}
		w, n := a.opts.Weights, a.opts.Norm
		for i := range o.grid {
			ps := o.powMu[0][i]*n.ServerPower.Scale + n.ServerPower.Center
			pb := o.powMu[1][i]*n.BSPower.Scale + n.BSPower.Center
			o.mu[gpCost][i] = w.Delta1*ps + w.Delta2*pb
			ss := w.Delta1 * n.ServerPower.Scale * o.powSigma[0][i]
			sb := w.Delta2 * n.BSPower.Scale * o.powSigma[1][i]
			o.sigma[gpCost][i] = math.Sqrt(ss*ss + sb*sb)
		}
	} else {
		batch(a.gps[gpCost], o.mu[gpCost], o.sigma[gpCost])
	}
	batch(a.gps[gpDelay], o.mu[gpDelay], o.sigma[gpDelay])
	batch(a.gps[gpMAP], o.mu[gpMAP], o.sigma[gpMAP])

	mu, sigma := &o.mu, &o.sigma
	cons := a.opts.Constraints
	dmax := a.opts.Norm.Delay.Norm(cons.MaxDelay)
	rmin := a.opts.Norm.MAP.Norm(cons.MinMAP)
	zetaD := math.Sqrt(a.gps[gpDelay].NoiseVar())
	sb, ab := a.opts.SafeBeta, a.opts.AcqBeta
	nSafe := 0
	for i := range o.grid {
		ok := a.opts.DisableSafeSet ||
			(sigma[gpDelay][i] < informedSigma && sigma[gpMAP][i] < informedSigma &&
				mu[gpDelay][i]+sb*math.Sqrt(sigma[gpDelay][i]*sigma[gpDelay][i]+zetaD*zetaD) <= dmax &&
				mu[gpMAP][i]-sb*sigma[gpMAP][i] >= rmin)
		o.safe[i] = ok
		if ok {
			nSafe++
		}
	}
	for _, gi := range a.safeSeedIx {
		if o.safe[gi] {
			continue
		}
		nSafe++
		retired := (mu[gpDelay][gi] > dmax || mu[gpMAP][gi] < rmin) &&
			sigma[gpDelay][gi] < seedRetireSigma && sigma[gpMAP][gi] < seedRetireSigma
		o.safe[gi] = !retired
	}
	lcb := func(i int) float64 { return mu[gpCost][i] - ab*sigma[gpCost][i] }

	best, bestLCB := -1, math.Inf(1)
	if a.opts.Rule == AcquisitionSafeOpt {
		bestUCB := math.Inf(1)
		for i := range o.grid {
			if ucb := mu[gpCost][i] + ab*sigma[gpCost][i]; o.safe[i] && ucb < bestUCB {
				bestUCB = ucb
			}
		}
		const edge = 0.5
		bestUnc := -1.0
		for i := range o.grid {
			if !o.safe[i] {
				continue
			}
			minimizer := lcb(i) <= bestUCB
			expander := mu[gpDelay][i]+sb*sigma[gpDelay][i] >= dmax-edge ||
				mu[gpMAP][i]-sb*sigma[gpMAP][i] <= rmin+edge
			unc := math.Max(sigma[gpCost][i], math.Max(sigma[gpDelay][i], sigma[gpMAP][i]))
			if (minimizer || expander) && unc > bestUnc {
				best, bestUnc, bestLCB = i, unc, lcb(i)
			}
		}
	} else {
		for i := range o.grid {
			if o.safe[i] && lcb(i) < bestLCB {
				best, bestLCB = i, lcb(i)
			}
		}
	}
	if best < 0 {
		bestScore := math.Inf(1)
		for _, gi := range a.safeSeedIx {
			score := math.Max(mu[gpDelay][gi]-dmax, 0) + math.Max(rmin-mu[gpMAP][gi], 0)
			if score < bestScore {
				best, bestScore = gi, score
			}
		}
		bestLCB = lcb(best)
	}
	return o.grid[best], SelectionInfo{
		SafeSetSize: nSafe,
		FromSeed: mu[gpDelay][best]+sb*sigma[gpDelay][best] > dmax ||
			mu[gpMAP][best]-sb*sigma[gpMAP][best] < rmin,
		CandidatesEvaluated: len(o.grid),
		LCB:                 bestLCB,
		Cost:                Posterior{Mean: mu[gpCost][best], Sigma: sigma[gpCost][best]},
		Delay:               Posterior{Mean: mu[gpDelay][best], Sigma: sigma[gpDelay][best]},
		MAP:                 Posterior{Mean: mu[gpMAP][best], Sigma: sigma[gpMAP][best]},
	}
}

// requireOracleMatch asserts that one SelectControl result agrees bitwise
// with the oracle's: control, LCB, the three posteriors at the pick, the
// safe-set size, the seed flag, and the candidate count.
func requireOracleMatch(t testing.TB, period int, x Control, info SelectionInfo, ox Control, oinfo SelectionInfo) {
	t.Helper()
	if !controlBitsEq(x, ox) {
		t.Fatalf("period %d: SelectControl picked %+v, oracle %+v", period, x, ox)
	}
	if !f64bitsEq(info.LCB, oinfo.LCB) ||
		!f64bitsEq(info.Cost.Mean, oinfo.Cost.Mean) || !f64bitsEq(info.Cost.Sigma, oinfo.Cost.Sigma) ||
		!f64bitsEq(info.Delay.Mean, oinfo.Delay.Mean) || !f64bitsEq(info.Delay.Sigma, oinfo.Delay.Sigma) ||
		!f64bitsEq(info.MAP.Mean, oinfo.MAP.Mean) || !f64bitsEq(info.MAP.Sigma, oinfo.MAP.Sigma) ||
		info.SafeSetSize != oinfo.SafeSetSize || info.FromSeed != oinfo.FromSeed ||
		info.CandidatesEvaluated != oinfo.CandidatesEvaluated {
		t.Fatalf("period %d: diagnostics diverged from the oracle:\n got %+v\nwant %+v", period, info, oinfo)
	}
}

// runOracleCase drives an agent built from opts for the given periods on
// the split-aware scripted environment, checking every selection against
// the oracle and the agent's invariants after every period.
func runOracleCase(t *testing.T, opts Options, periods int) {
	t.Helper()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newSelectOracle(t, opts.Grid)
	for i := 0; i < periods; i++ {
		ctx := scriptContext(i)
		ox, oinfo := o.selectControl(a, ctx)
		x, info := a.SelectControl(ctx)
		requireOracleMatch(t, i, x, info, ox, oinfo)
		if err := a.Observe(ctx, x, acqKPIs(i, x)); err != nil {
			t.Fatalf("period %d: Observe: %v", i, err)
		}
		checkInvariants(t, a)
	}
}

// checkInvariants asserts that the agent's learned state is consistent:
// every GP the agent trains holds the same rows and has evicted in
// lockstep, the cost GP of a decomposed-cost agent is untouched, the
// period counter accounts for every retained row — equal to it until the
// first eviction, above it afterwards — the members of every sweep plan
// share one basis, the last selection's posterior σ are within the prior,
// and its seed and safe slots have finite σ.
func checkInvariants(t testing.TB, a *Agent) {
	t.Helper()
	trained := []*gp.GP{a.gps[gpDelay], a.gps[gpMAP]}
	if a.opts.DecomposedCost {
		trained = append(trained, a.powerGPs[0], a.powerGPs[1])
		if n := a.gps[gpCost].Len(); n != 0 {
			t.Fatalf("decomposed-cost agent trained its cost GP: %d rows", n)
		}
	} else {
		trained = append(trained, a.gps[gpCost])
	}
	n, ev := a.gps[gpDelay].Len(), a.gps[gpDelay].Evictions()
	for _, g := range trained {
		if g.Len() != n || g.Evictions() != ev {
			t.Fatalf("GP state misaligned: %d rows/%d evictions vs %d/%d", g.Len(), g.Evictions(), n, ev)
		}
	}
	switch {
	case ev == 0 && n != a.t:
		t.Fatalf("%d retained rows without eviction, period counter %d", n, a.t)
	case ev > 0 && (n >= a.t || n == 0):
		t.Fatalf("%d retained rows after %d evictions, period counter %d", n, ev, a.t)
	case ev > 0 && !a.gps[gpDelay].IsSparse() && n > a.opts.MaxObservations:
		t.Fatalf("%d retained rows above the bound %d", n, a.opts.MaxObservations)
	}
	checkPlanMembers(t, a)
	checkSelectionSigmas(t, a)
	checkSlotSigmas(t, a)
}

// checkSlotSigmas asserts that the last selection solved the variances
// its rules read: every seed slot and every slot it marked safe has a
// finite σ for every swept objective. A gated sweep may leave any other
// slot at σ = +Inf.
func checkSlotSigmas(t testing.TB, a *Agent) {
	t.Helper()
	e := a.acq
	finite := func(what string, s int) {
		t.Helper()
		for o := range e.sigma {
			if e.sigma[o] != nil && math.IsInf(e.sigma[o][s], 0) {
				t.Fatalf("%s slot %d (grid %d): objective %d σ is %v", what, s, e.idx[s], o, e.sigma[o][s])
			}
		}
	}
	for _, s := range e.seedSlot {
		finite("seed", int(s))
	}
	for s := 0; s < e.n; s++ {
		if e.safe[s] {
			finite("safe", s)
		}
	}
}

// checkPlanMembers asserts that the members of every sweep plan share one
// basis, as the plan's single cross-covariance column per candidate
// requires: equal row counts, eviction counts and inducing-set sizes,
// and, on the exact engine (where the training rows are the basis),
// bitwise-equal training rows.
func checkPlanMembers(t testing.TB, a *Agent) {
	t.Helper()
	for _, grp := range a.plans {
		lead, lname := a.objectiveGP(grp.objs[0])
		for _, o := range grp.objs[1:] {
			g, name := a.objectiveGP(o)
			if g.Len() != lead.Len() || g.Evictions() != lead.Evictions() || g.InducingLen() != lead.InducingLen() {
				t.Fatalf("plan members %s and %s diverged: %d/%d/%d vs %d/%d/%d rows/evictions/inducing",
					lname, name, lead.Len(), lead.Evictions(), lead.InducingLen(), g.Len(), g.Evictions(), g.InducingLen())
			}
			if g.IsSparse() {
				continue
			}
			for i := 0; i < g.Len(); i++ {
				lr, r := lead.TrainingRow(i), g.TrainingRow(i)
				for j := range lr {
					if math.Float64bits(lr[j]) != math.Float64bits(r[j]) {
						t.Fatalf("plan members %s and %s: training row %d differs at feature %d: %x vs %x",
							lname, name, i, j, lr[j], r[j])
					}
				}
			}
		}
	}
}

// checkSelectionSigmas asserts that every posterior σ of the last
// selection lies in [0, √prior]. Under DecomposedCost the cost σ is the
// combination of the two power σ in raw monetary units, bounded by the
// same combination of √prior.
func checkSelectionSigmas(t testing.TB, a *Agent) {
	t.Helper()
	info := a.lastInfo
	within := func(name string, s, bound float64) {
		t.Helper()
		if !(s >= 0 && s <= bound) {
			t.Fatalf("last selection's %s σ %v outside [0, %v]", name, s, bound)
		}
	}
	root := math.Sqrt(a.gps[gpDelay].Kernel().Prior())
	within("delay", info.Delay.Sigma, root)
	within("mAP", info.MAP.Sigma, root)
	if !a.opts.DecomposedCost {
		within("cost", info.Cost.Sigma, root)
		return
	}
	w, nm := a.opts.Weights, a.opts.Norm
	ss := w.Delta1 * nm.ServerPower.Scale * root
	sb := w.Delta2 * nm.BSPower.Scale * root
	within("cost", info.Cost.Sigma, math.Sqrt(ss*ss+sb*sb))
}
