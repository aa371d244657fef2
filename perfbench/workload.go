package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/multislice"
	"repro/internal/oran"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// The paper's Fig. 9 operating point: δ = (1, 8), d^max = 0.4 s, ρ^min = 0.5.
var (
	weights     = core.CostWeights{Delta1: 1, Delta2: 8}
	constraints = core.Constraints{MaxDelay: 0.4, MinMAP: 0.5}
)

// SNR ranges of the generated inputs, in dB. Below 15 dB no control on the
// paper's grid meets the constraints; the 3-level fleet grid needs 16 dB.
const (
	minSNR      = 15
	fleetMinSNR = 16
	maxSNR      = 35
	staticSNR   = 35
	walkStep    = 3
)

// spec is one workload: the loop configuration and the shape of its
// generated inputs. An episode is one set-up followed by periods control
// periods (fleet steps); a run of --seconds s runs perSecond·s episodes,
// sized so that a run takes about that long on a 2-vCPU host.
type spec struct {
	name      string
	periods   int
	perSecond float64
	grid      core.GridSpec
	engine    core.EngineSelector
	inducing  int
	walk      bool // single user's SNR follows a seeded random walk
	ckptEvery int  // checkpoint interval in periods (0: none)
	cells     int  // fleet size (0: one cell behind its own oran.Deploy)
}

func specs() []spec {
	big := core.GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1}
	big.LevelsPerDim[4] = 8
	return []spec{
		// The paper's operating point: SelectControl's exhaustive sweep
		// over 11⁴ controls is nearly all of a period.
		{name: "paper-static", periods: 100, perSecond: 0.2, grid: core.DefaultGridSpec(), ckptEvery: 50},
		// Same sweep cost, but the context keeps moving, so anything
		// keyed on a fixed context is bypassed.
		{name: "channel-dynamics", periods: 100, perSecond: 0.2, grid: core.DefaultGridSpec(), walk: true},
		// Bound by the control plane and the simulator: 16 cells of 81
		// candidates each on the sparse engine.
		{name: "fleet-coarse", periods: 100, perSecond: 0.8, cells: 16, engine: core.EngineSparse, inducing: 32,
			grid: core.GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1}},
		// 31⁴×8 ≈ 7.4M candidates: the only workload on which the adaptive
		// acquisition engine and gp.SweepSubset run.
		{name: "split-biggrid", periods: 50, perSecond: 0.8, grid: big},
	}
}

func lookup(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs generates the workload's SNRs from the seed: one per period for
// a single cell, one per cell for the fleet.
func (s spec) inputs(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	switch {
	case s.cells > 0:
		out := make([]float64, s.cells)
		for i := range out {
			out[i] = fleetMinSNR + rng.Float64()*(maxSNR-fleetMinSNR)
		}
		return out
	case s.walk:
		out := make([]float64, s.periods)
		v := minSNR + rng.Intn(maxSNR-minSNR+1)
		for i := range out {
			out[i] = float64(v)
			// Steps of up to ±walkStep dB cross the whole range within an
			// episode, so no seed's walk stays at the hard low end.
			v += rng.Intn(2*walkStep+1) - walkStep
			if v < minSNR {
				v = minSNR
			}
			if v > maxSNR {
				v = maxSNR
			}
		}
		return out
	default:
		out := make([]float64, s.periods)
		for i := range out {
			out[i] = staticSNR
		}
		return out
	}
}

func (s spec) agentOptions() core.Options {
	return core.Options{Grid: s.grid, Weights: weights, Constraints: constraints,
		Engine: s.engine, InducingPoints: s.inducing}
}

func (s spec) fleetOptions(seed int64, snrs []float64, workers int) fleet.Options {
	cells := make([]fleet.CellConfig, len(snrs))
	for i, snr := range snrs {
		name := fmt.Sprintf("cell-%03d", i)
		cells[i] = fleet.CellConfig{Name: name, Slice: multislice.SliceConfig{
			Name: name, AirtimeBudget: 1, GPUShare: 1, Users: []ran.User{{SNRdB: snr}},
			Weights: weights, Constraints: constraints,
		}}
	}
	return fleet.Options{Cells: cells, Base: testbed.DefaultConfig(), Agent: s.agentOptions(),
		Workers: workers, BaseSeed: seed}
}

// timedEnv is the testbed as the O-RAN data plane sees it. It records
// each measurement as a testbed.measure span under the oran.measure span
// the loop has open, notes when the control that reached the testbed is
// not the one the agent chose, and serializes the loop's SNR changes with
// the data plane's calls.
type timedEnv struct {
	tr       *tracer
	mu       sync.Mutex
	tb       *testbed.Testbed
	parent   int
	period   int
	chosen   core.Control
	mismatch bool
}

func (e *timedEnv) Context() core.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tb.Context()
}

func (e *timedEnv) Measure(x core.Control) (core.KPIs, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mismatch = x != e.chosen
	id := e.tr.begin("testbed.measure", e.parent, e.period)
	k, err := e.tb.Measure(x)
	e.tr.end(id)
	return k, err
}

func (e *timedEnv) setSNR(snr float64) {
	e.mu.Lock()
	e.tb.SetSNR(snr)
	e.mu.Unlock()
}

// open announces the measurement the loop is about to request.
func (e *timedEnv) open(parent, period int, chosen core.Control) {
	e.mu.Lock()
	e.parent, e.period, e.chosen, e.mismatch = parent, period, chosen, false
	e.mu.Unlock()
}

// altered reports whether the last measurement applied another control
// than the one announced.
func (e *timedEnv) altered() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mismatch
}

// loop is one cell's control loop: its agent behind its control plane.
type loop struct {
	dep   *oran.Deployment
	agent *core.Agent
	opts  core.Options
	env   *timedEnv // nil for fleet cells, whose environments the fleet owns
}

// newCell stands up a single-cell loop: testbed, oran.Deploy, NewAgent.
func (s spec) newCell(ctx context.Context, seed int64, snr float64, ckptDir string, tr *tracer) (*loop, error) {
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: snr}}, seed)
	if err != nil {
		return nil, err
	}
	env := &timedEnv{tr: tr, tb: tb, parent: -1}
	var dopts oran.DeployOptions
	if s.ckptEvery > 0 {
		dopts.CheckpointDir, dopts.CheckpointEvery = ckptDir, s.ckptEvery
	}
	dep, err := oran.Deploy(ctx, env, dopts)
	if err != nil {
		return nil, err
	}
	opts := s.agentOptions()
	agent, err := core.NewAgent(opts)
	if err != nil {
		_ = dep.Close() // already failing; keep the agent error
		return nil, err
	}
	return &loop{dep: dep, agent: agent, opts: opts, env: env}, nil
}
