package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gp"
)

// opaqueKernel hides the concrete kernel type from gp.NewSweepPlan while
// computing exactly the same covariances as the Matérn-3/2 it wraps.
type opaqueKernel struct{ gp.Kernel }

func opaqueMatern32(ls []float64) gp.Kernel { return &opaqueKernel{gp.NewMatern32(ls)} }

// TestNewAgentRejectsForeignKernel pins the kernel contract: every
// objective sweeps through a gp.SweepPlan, so a KernelFactory returning
// anything but a package kernel is refused at construction, with the
// offending type named.
func TestNewAgentRejectsForeignKernel(t *testing.T) {
	for _, decomposed := range []bool{false, true} {
		opts := testOptions()
		opts.DecomposedCost = decomposed
		opts.KernelFactory = opaqueMatern32
		a, err := NewAgent(opts)
		if err == nil || a != nil {
			t.Fatalf("decomposed=%v: NewAgent accepted a foreign kernel", decomposed)
		}
		if !strings.Contains(err.Error(), "opaqueKernel") {
			t.Fatalf("decomposed=%v: error %q does not name the kernel type", decomposed, err)
		}
	}
}

// TestAgentSweepPlanMatchesGeneric pins the agent-level contract of the grid
// sweep engine: an agent whose objectives sweep through SweepPlans selects
// bitwise-identical controls — with bitwise-identical posteriors and
// diagnostics — to the oracle that evaluates the enumerated grid through
// the generic PosteriorBatch path, across worker counts, cost
// decomposition, sliding-window evictions, and varying contexts.
func TestAgentSweepPlanMatchesGeneric(t *testing.T) {
	cases := []struct {
		name       string
		workers    int
		decomposed bool
		maxObs     int
	}{
		{"serial", 1, false, 0},
		{"autoworkers", 0, false, 0},
		{"workers4", 4, false, 0},
		{"decomposed", 1, true, 0},
		{"eviction", 4, false, 20},
		{"decomposed_eviction", 0, true, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAgent(Options{
				Grid:             testGrid(),
				Weights:          CostWeights{Delta1: 1, Delta2: 1},
				Constraints:      Constraints{MaxDelay: 0.9, MinMAP: 0.3},
				Norm:             quadNorm(),
				NoiseVars:        [3]float64{1e-4, 1e-4, 1e-4},
				InferenceWorkers: tc.workers,
				DecomposedCost:   tc.decomposed,
				MaxObservations:  tc.maxObs,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle := newSelectOracle(t, testGrid())
			env := &quadEnv{}
			const steps = 35
			for i := 0; i < steps; i++ {
				// Vary the context so the plans' per-period context partials
				// (not just the cached tables) are exercised.
				ctx := Context{
					NumUsers: 1 + i%3,
					MeanCQI:  10 + float64(i%5),
					VarCQI:   float64(i%4) / 2,
				}
				xo, io := oracle.selectControl(a, ctx)
				xp, ip := a.SelectControl(ctx)
				requireOracleMatch(t, i, xp, ip, xo, io)
				k, err := env.Measure(xp)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Observe(ctx, xp, k); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, a)
			}
			if tc.maxObs > 0 && a.gps[gpDelay].Evictions() == 0 {
				t.Fatal("eviction case never evicted: the rebuild path went unexercised")
			}
		})
	}
}

// TestAgentSweepPlanGroups pins the kernel grouping: the swept objectives
// whose GPs share a kernel share one plan — one plan over cost, delay and
// mAP by default, one over delay, mAP and both power GPs under
// DecomposedCost (the untrained cost GP gets none) — while a per-GP length
// scale that differs in any bit splits its objective off.
func TestAgentSweepPlanGroups(t *testing.T) {
	defaults := testOptions()
	if err := defaults.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	distinct := append([]float64(nil), defaults.LengthScales...)
	distinct[0] = math.Nextafter(distinct[0], 10)
	cases := []struct {
		name   string
		mutate func(*Options)
		want   [][]int
	}{
		{"default", func(*Options) {}, [][]int{{gpCost, gpDelay, gpMAP}}},
		{"decomposed", func(o *Options) { o.DecomposedCost = true },
			[][]int{{gpDelay, gpMAP, objServerPower, objBSPower}}},
		{"equal per-GP scales", func(o *Options) {
			o.LengthScalesPerGP[gpMAP] = append([]float64(nil), defaults.LengthScales...)
		}, [][]int{{gpCost, gpDelay, gpMAP}}},
		{"distinct mAP scales", func(o *Options) { o.LengthScalesPerGP[gpMAP] = distinct },
			[][]int{{gpCost, gpDelay}, {gpMAP}}},
		{"distinct cost scales, decomposed", func(o *Options) {
			o.DecomposedCost = true
			o.LengthScalesPerGP[gpCost] = distinct
		}, [][]int{{gpDelay, gpMAP}, {objServerPower, objBSPower}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			tc.mutate(&opts)
			a, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]int, len(a.plans))
			for k, grp := range a.plans {
				got[k] = grp.objs
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("plan groups %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSelectControlAllocs is a host-independent performance gate: one
// serial SelectControl on the paper's 11⁴ grid at t = 50 does not
// allocate, neither on random KPIs (the ungated worst case) nor in the
// paper's regime (gated sweep plus seed re-sweep). The sweep plan owns
// its per-shard column panels and solver scratch, and the engine its
// slot arrays and seed re-sweep buffers; a regression that allocates per
// sweep, per kernel group or per candidate fails it.
func TestSelectControlAllocs(t *testing.T) {
	opts := benchOptions(DefaultGridSpec(), AcqAuto, EngineExact)
	opts.InferenceWorkers = 1
	a, ctx := benchAgentOpts(t, 50, opts)
	paper := benchAgentPaper(t, 50, opts)
	const maxAllocs = 0
	if got := testing.AllocsPerRun(3, func() { a.SelectControl(ctx) }); got > maxAllocs {
		t.Fatalf("SelectControl allocated %v times per period, want at most %d", got, maxAllocs)
	}
	if got := testing.AllocsPerRun(3, func() { paper.SelectControl(paperContext) }); got > maxAllocs {
		t.Fatalf("paper-regime SelectControl allocated %v times per period, want at most %d", got, maxAllocs)
	}
}
