package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchAgent builds an agent on the paper's full 11⁴ grid with t seeded
// synthetic observations, matching the per-period state of a long run.
func benchAgent(b *testing.B, t int) (*Agent, Context) {
	return benchAgentEngine(b, t, EngineExact)
}

func benchAgentEngine(b *testing.B, t int, engine EngineSelector) (*Agent, Context) {
	return benchAgentGrid(b, t, DefaultGridSpec(), AcqAuto, engine)
}

// benchAgentGrid seeds observations by direct index arithmetic
// (GridSpec.At), never materializing the grid — the multi-million-point
// adaptive variants would not appreciate a 7.4M-element warm-up slice.
func benchAgentGrid(b *testing.B, t int, spec GridSpec, mode AcquisitionMode, engine EngineSelector) (*Agent, Context) {
	return benchAgentOpts(b, t, benchOptions(spec, mode, engine))
}

// benchOptions is the benchmark agents' configuration: the paper's cost
// weights and service constraints on the given grid, engine and mode.
func benchOptions(spec GridSpec, mode AcquisitionMode, engine EngineSelector) Options {
	return Options{
		Grid:        spec,
		Weights:     CostWeights{Delta1: 1, Delta2: 8},
		Constraints: Constraints{MaxDelay: 0.4, MinMAP: 0.5},
		Engine:      engine,
		Acquisition: mode,
	}
}

// benchAgentOpts builds an agent from opts and feeds it t seeded synthetic
// observations; it returns the agent and the context the benchmarks
// select in.
func benchAgentOpts(tb testing.TB, t int, opts Options) (*Agent, Context) {
	tb.Helper()
	a, err := NewAgent(opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < t; i++ {
		ctx, x, k := benchObservation(rng, opts.Grid)
		if err := a.Observe(ctx, x, k); err != nil {
			tb.Fatal(err)
		}
	}
	return a, Context{NumUsers: 2, MeanCQI: 12, VarCQI: 1.5}
}

// benchObservation draws one synthetic period: a random context, a random
// grid control, and KPIs in the testbed's ranges.
func benchObservation(rng *rand.Rand, spec GridSpec) (Context, Control, KPIs) {
	ctx := Context{NumUsers: 1 + rng.Intn(4), MeanCQI: 8 + 7*rng.Float64(), VarCQI: 3 * rng.Float64()}
	x := spec.At(rng.Intn(spec.Size()))
	k := KPIs{
		Delay:       0.15 + 0.3*rng.Float64(),
		GPUDelay:    0.05 + 0.1*rng.Float64(),
		MAP:         0.45 + 0.25*rng.Float64(),
		ServerPower: 80 + 120*rng.Float64(),
		BSPower:     4.5 + 3*rng.Float64(),
	}
	return ctx, x, k
}

// paperContext is one user at 35 dB SNR (CQI 15), the testbed's context
// in the paper's static experiments.
var paperContext = Context{NumUsers: 1, MeanCQI: 15}

// paperKPIs is a deterministic KPI surface shaped like the testbed's at
// 35 dB: the transmission delay grows with the image resolution and
// falls with airtime and MCS, the GPU delay falls with GPU speed, and mAP
// grows with resolution. Under the paper's constraints (benchOptions: 0.4 s,
// mAP 0.5) 369 of the 11⁴ = 14 641 controls are feasible, 2.5 %; the
// testbed's noise-free surface at 35 dB has 344 (2.3 %).
func paperKPIs(x Control) KPIs {
	tx := 0.16 * x.Resolution / (x.Airtime * (0.1 + x.MCS))
	gpu := 0.04 + 0.12*x.Resolution/(0.15+x.GPUSpeed)
	return KPIs{
		Delay:       tx + gpu,
		GPUDelay:    gpu,
		MAP:         0.03 + 0.6*x.Resolution,
		ServerPower: 75 + 60*x.GPUSpeed + 15*x.Resolution,
		BSPower:     4.6 + 0.9*x.Airtime + 0.3*x.MCS,
	}
}

// benchAgentPaper builds an agent from opts trained on t observations of
// the paper-regime surface at random grid controls in paperContext, the
// context it then selects in.
func benchAgentPaper(tb testing.TB, t int, opts Options) *Agent {
	tb.Helper()
	a, err := NewAgent(opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < t; i++ {
		x := opts.Grid.At(rng.Intn(opts.Grid.Size()))
		if err := a.Observe(paperContext, x, paperKPIs(x)); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

// BenchmarkObserve measures one Observe — the GP update of lines 8–13 of
// Algorithm 1 on all three objective GPs — on the paper's 11⁴ grid at
// history t. Every iteration restores the same t-observation agent from a
// checkpoint (untimed), so each timed Observe appends observation t+1.
// Observe leaves the sweep plan alone: its distance tables pick up the
// new row at the next sweep, once per kernel group.
func BenchmarkObserve(b *testing.B) {
	for _, t := range []int{50, 200} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			opts := benchOptions(DefaultGridSpec(), AcqAuto, EngineExact)
			a, _ := benchAgentOpts(b, t, opts)
			var buf bytes.Buffer
			if err := a.SaveCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
			ckpt := buf.Bytes()
			ctx, x, k := benchObservation(rand.New(rand.NewSource(7)), opts.Grid)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := LoadCheckpoint(bytes.NewReader(ckpt), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := a.Observe(ctx, x, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchExactCap is the largest history the exact-engine benchmark runs
// at; above it the O(t²)-per-candidate sweep is not a supported operating
// point (the sparse engine is) and the variant skips with a logged
// reason.
const benchExactCap = 1000

// BenchmarkSelectControl measures one full acquisition step — three GP
// posterior sweeps over the 14 641-point grid, the safe-set filter, and
// the constrained-LCB argmin — at several history sizes t. The default
// variants train on random KPIs; kpi=paper trains on the paper-regime
// surface. The engine=sparse variants run the inducing-point engine
// (m=128) and pin its flat per-period cost out to t=10⁴.
func BenchmarkSelectControl(b *testing.B) {
	for _, t := range []int{50, 200, 1000, 5000} {
		if testing.Short() && t > 200 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			if t > benchExactCap {
				b.Skipf("exact engine skipped at t=%d: O(t²) per-candidate sweep; see the engine=sparse variant", t)
			}
			a, ctx := benchAgent(b, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}
	// The paper's regime: KPIs from paperKPIs, where eq. 8 holds on a few
	// percent of the grid. The mean gates spare the variance solve of
	// every other candidate (at t=50 about 97 % of them), whereas the
	// random-KPI variants above are the no-pruning worst case: about 10 %
	// of their candidates fail a mean gate.
	for _, t := range []int{50, 200} {
		b.Run(fmt.Sprintf("t=%d/kpi=paper", t), func(b *testing.B) {
			a := benchAgentPaper(b, t, benchOptions(DefaultGridSpec(), AcqAuto, EngineExact))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(paperContext)
			}
		})
	}
	for _, t := range []int{1000, 5000, 10000} {
		// t=1000 stays in short mode so bench-check gates the sparse
		// engine too; the longer horizons are full-run only.
		if testing.Short() && t > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d/engine=sparse", t), func(b *testing.B) {
			a, ctx := benchAgentEngine(b, t, EngineSparse)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}

	// Grid-size variants at t=200: the exhaustive sweep against the
	// adaptive coarse-to-fine engine as the control space grows from the
	// paper's 11⁴ to the 31⁴×8 ≈ 7.4M-candidate split-inference grid.
	grid31 := GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1}
	grid31x8 := GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1,
		LevelsPerDim: [ControlDims]int{31, 31, 31, 31, 8}}
	variants := []struct {
		name     string
		spec     GridSpec
		mode     AcquisitionMode
		fullOnly bool
	}{
		{"grid=11p4/acq=exhaustive", DefaultGridSpec(), AcqExhaustive, false},
		{"grid=11p4/acq=adaptive", DefaultGridSpec(), AcqAdaptive, false},
		// Exhaustive at 31⁴ = 923 521 candidates sweeps ~0.5 GB of
		// posterior work per period; full-run only, it exists to anchor
		// the speedup claim.
		{"grid=31p4/acq=exhaustive", grid31, AcqExhaustive, true},
		{"grid=31p4/acq=adaptive", grid31, AcqAuto, false},
		{"grid=31p4x8/acq=adaptive", grid31x8, AcqAuto, false},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("%s/t=200", v.name), func(b *testing.B) {
			if v.fullOnly && testing.Short() {
				b.Skipf("full-run only: exhaustive sweep over %d candidates", v.spec.Size())
			}
			a, ctx := benchAgentGrid(b, 200, v.spec, v.mode, EngineExact)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}
}
