package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// TestAcqGateSound pins the soundness of the gated full-coverage sweep on
// agents in the paper's regime (paperKPIs on the 11⁴ grid under the
// paper's constraints), against the PosteriorBatch oracle on every
// period: a slot's variances are skipped (σ = +Inf) exactly when its
// means fail the eq. 8 test at σ = 0 and it is not a seed; such a slot
// also fails the oracle's exact eq. 8 test; every other slot's σ, and
// every slot's means, match the oracle bitwise; and the selection does.
// With the safe set disabled nothing is gated.
func TestAcqGateSound(t *testing.T) {
	const periods = 12
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"decomposed", func(o *Options) { o.DecomposedCost = true }},
		{"safeopt", func(o *Options) { o.Rule = AcquisitionSafeOpt }},
		{"sparse", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
		}},
		{"evicting", func(o *Options) { o.MaxObservations = 8 }},
		{"workers=2", func(o *Options) { o.InferenceWorkers = 2 }},
		{"seeds", func(o *Options) {
			// Two seeds deep in the infeasible region (one duplicated),
			// which the gate drops and the re-sweep must restore.
			o.SafeSeed = []Control{
				{Resolution: 1, Airtime: 0.1, GPUSpeed: 0, MCS: 0},
				{Resolution: 0.1, Airtime: 0.1, GPUSpeed: 0, MCS: 0},
				{Resolution: 1, Airtime: 0.1, GPUSpeed: 0, MCS: 0},
			}
		}},
		{"no safe set", func(o *Options) { o.DisableSafeSet = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := benchOptions(DefaultGridSpec(), AcqAuto, EngineExact)
			tc.mut(&opts)
			a, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			o := newSelectOracle(t, opts.Grid)
			seed := make(map[int]bool)
			for _, gi := range a.safeSeedIx {
				seed[gi] = true
			}
			rng := rand.New(rand.NewSource(13))
			gatedTotal, seedsGated := 0, 0
			for i := 0; i < periods; i++ {
				ox, oinfo := o.selectControl(a, paperContext)
				x, info := a.SelectControl(paperContext)
				requireOracleMatch(t, i, x, info, ox, oinfo)
				gated, seedsOff := requireGateSound(t, i, a, o, seed)
				gatedTotal += gated
				seedsGated += seedsOff
				// Learn from the agent's pick and from a random control,
				// so the posterior covers the grid beyond the safe set.
				if err := a.Observe(paperContext, x, paperKPIs(x)); err != nil {
					t.Fatal(err)
				}
				r := opts.Grid.At(rng.Intn(opts.Grid.Size()))
				if err := a.Observe(paperContext, r, paperKPIs(r)); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, a)
			}
			t.Logf("%d of %d slots gated over %d periods; seeds failing the mean test: %d",
				gatedTotal, periods*opts.Grid.Size(), periods, seedsGated)
			switch {
			case opts.DisableSafeSet && gatedTotal > 0:
				t.Fatalf("%d slots gated with the safe set disabled", gatedTotal)
			case !opts.DisableSafeSet && gatedTotal == 0:
				t.Fatal("no slot was ever gated: the test does not exercise the gate")
			case tc.name == "seeds" && seedsGated == 0:
				t.Fatal("no seed failed the mean test: the re-sweep is not exercised")
			}
		})
	}
}

// requireGateSound checks one period's slots against the oracle that has
// just selected for the same state (see TestAcqGateSound). It returns the
// number of gated slots and of seeds whose means failed the mean test.
func requireGateSound(t *testing.T, period int, a *Agent, o *selectOracle, seed map[int]bool) (gated, seedsOff int) {
	t.Helper()
	e := a.acq
	cons := a.opts.Constraints
	dmax := a.opts.Norm.Delay.Norm(cons.MaxDelay)
	rmin := a.opts.Norm.MAP.Norm(cons.MinMAP)
	zetaD := math.Sqrt(a.gps[gpDelay].NoiseVar())
	sb := a.opts.SafeBeta
	objs := a.sweptObjectives()
	if a.opts.DecomposedCost {
		objs = append(objs, gpCost)
	}
	for s := 0; s < e.n; s++ {
		gi := int(e.idx[s])
		meanFails := !(o.mu[gpDelay][gi]+sb*math.Sqrt(0*0+zetaD*zetaD) <= dmax) ||
			!(o.mu[gpMAP][gi]-sb*0 >= rmin)
		if meanFails && seed[gi] {
			seedsOff++
		}
		want := meanFails && !seed[gi] && !a.opts.DisableSafeSet
		isGated := math.IsInf(e.sigma[gpDelay][s], 1)
		if isGated != want {
			t.Fatalf("period %d grid %d: gated=%v, want %v (mean test fails=%v, seed=%v)",
				period, gi, isGated, want, meanFails, seed[gi])
		}
		if isGated {
			gated++
			if o.safe[gi] {
				t.Fatalf("period %d grid %d: gated, but the oracle's eq. 8 test holds", period, gi)
			}
		}
		for _, obj := range objs {
			om, os := oracleObjective(o, obj, gi)
			if !f64bitsEq(e.mu[obj][s], om) {
				t.Fatalf("period %d grid %d objective %d: μ %x, oracle %x", period, gi, obj, e.mu[obj][s], om)
			}
			switch {
			case isGated && !math.IsInf(e.sigma[obj][s], 1):
				t.Fatalf("period %d grid %d objective %d: gated slot has σ %v", period, gi, obj, e.sigma[obj][s])
			case !isGated && !f64bitsEq(e.sigma[obj][s], os):
				t.Fatalf("period %d grid %d objective %d: σ %x, oracle %x", period, gi, obj, e.sigma[obj][s], os)
			}
		}
	}
	return gated, seedsOff
}

// oracleObjective returns the oracle's posterior of objective obj at grid
// point gi.
func oracleObjective(o *selectOracle, obj, gi int) (mu, sigma float64) {
	if obj >= numGPs {
		return o.powMu[obj-numGPs][gi], o.powSigma[obj-numGPs][gi]
	}
	return o.mu[obj][gi], o.sigma[obj][gi]
}

// TestAcqGateBudgetedUngated pins that budgeted mode never gates: the rank
// and LCB of every evaluated slot order its multigrid and flood, so every
// slot's variances are solved.
func TestAcqGateBudgetedUngated(t *testing.T) {
	opts := benchOptions(largeAcqGrid(), AcqAdaptive, EngineExact)
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		x, info := a.SelectControl(paperContext)
		if !info.Adaptive || info.CandidatesEvaluated >= opts.Grid.Size() {
			t.Fatalf("period %d: not a budgeted search (%d candidates)", i, info.CandidatesEvaluated)
		}
		for o := range a.acq.sigma {
			for s := 0; s < a.acq.n && a.acq.sigma[o] != nil; s++ {
				if math.IsInf(a.acq.sigma[o][s], 1) {
					t.Fatalf("period %d: budgeted slot %d objective %d was gated", i, s, o)
				}
			}
		}
		for _, c := range []Control{x, opts.Grid.At(rng.Intn(opts.Grid.Size()))} {
			if err := a.Observe(paperContext, c, paperKPIs(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAcqGateTelemetry pins edgebol_acq_variance_solves_total: per
// period it grows by the number of candidates whose variances were solved
// — the slots left with a finite σ — while
// edgebol_acq_candidates_evaluated keeps counting every scored candidate.
// With the safe set disabled the two agree.
func TestAcqGateTelemetry(t *testing.T) {
	for _, disable := range []bool{false, true} {
		opts := benchOptions(DefaultGridSpec(), AcqAuto, EngineExact)
		opts.DisableSafeSet = disable
		opts.Telemetry = telemetry.NewRegistry()
		a := benchAgentPaper(t, 20, opts)
		solves := opts.Telemetry.Counter("edgebol_acq_variance_solves_total")
		cands := opts.Telemetry.Counter("edgebol_acq_candidates_evaluated")
		for i := 0; i < 3; i++ {
			s0, c0 := solves.Value(), cands.Value()
			x, _ := a.SelectControl(paperContext)
			finite := 0
			for s := 0; s < a.acq.n; s++ {
				if !math.IsInf(a.acq.sigma[gpDelay][s], 1) {
					finite++
				}
			}
			ds, dc := solves.Value()-s0, cands.Value()-c0
			if dc != uint64(opts.Grid.Size()) {
				t.Fatalf("disable=%v period %d: %d candidates counted, want %d", disable, i, dc, opts.Grid.Size())
			}
			if ds != uint64(finite) {
				t.Fatalf("disable=%v period %d: %d variance solves counted, %d slots solved", disable, i, ds, finite)
			}
			if disable != (ds == dc) {
				t.Fatalf("disable=%v period %d: %d solves of %d candidates", disable, i, ds, dc)
			}
			if err := a.Observe(paperContext, x, paperKPIs(x)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
