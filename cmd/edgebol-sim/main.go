// Command edgebol-sim runs the EdgeBOL closed loop against the simulated
// prototype and reports per-period decisions and KPIs plus a convergence
// summary against the exhaustive-search oracle.
//
// Usage:
//
//	edgebol-sim [-periods N] [-users N] [-snr DB] [-delta1 F] [-delta2 F]
//	            [-dmax S] [-rmin F] [-grid LEVELS] [-grid-levels R,A,G,M[,S]]
//	            [-split-layers N] [-seed N] [-quiet]
//	            [-metrics ADDR] [-checkpoint-dir DIR] [-checkpoint-every N]
//	            [-resume PATH] [-engine exact|sparse|auto] [-inducing M]
//	            [-acquisition auto|exhaustive|adaptive]
//	edgebol-sim ckpt info PATH
//	edgebol-sim ckpt latest DIR
//	edgebol-sim -fleet N [-fleet-workers W] [-warm-neighbors K] [...]
//
// With -fleet N, the command runs an N-cell fleet instead of a single
// loop: every cell is its own slice testbed, agent, and O-RAN control
// plane (per-cell E2/O1 endpoints), stepped concurrently over a bounded
// worker pool with per-fleet cost/power/violation roll-ups. With
// -warm-neighbors K, one extra cell joins after the run, warm-started
// from its K most context-similar neighbors' observation histories, and
// the summary reports the periods each joiner needed to reach its first
// safe learned period (cold twin vs warm joiner).
//
// With -grid-levels, the per-dimension level counts replace the uniform
// -grid value; a fifth count (or -split-layers N) opens the
// split-inference dimension, placing part of the detector DNN on the
// device. Grids past the paper's scale (e.g. -grid 31 -split-layers 8,
// 7.4M candidates) are what -acquisition is for: auto evaluates every
// candidate on small grids and switches to the budgeted coarse-to-fine
// search on large ones.
//
// With -metrics, a registry instruments the agent and the testbed and an
// HTTP server on ADDR serves /metrics (Prometheus text) and /debug/pprof
// so a long run can be watched live.
//
// With -checkpoint-dir, the agent's learned state is committed into DIR
// every -checkpoint-every periods (crash-safe write-then-rename, LATEST
// pointer). A later run passing -resume PATH (or -resume latest with
// -checkpoint-dir) warm-starts from that snapshot instead of learning from
// scratch; restore is bitwise lossless, so the resumed run continues
// exactly where the interrupted one stopped. The ckpt subcommand inspects
// snapshot files without loading an agent.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/bandit"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/multislice"
	"repro/internal/oran"
	"repro/internal/ran"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ckpt" {
		ckptMain(os.Args[2:])
		return
	}
	periods := flag.Int("periods", 120, "control periods to run")
	users := flag.Int("users", 1, "number of users (heterogeneous SNRs beyond the first)")
	snr := flag.Float64("snr", 35, "first user's mean uplink SNR in dB")
	delta1 := flag.Float64("delta1", 1, "server energy price δ1 (mu/W)")
	delta2 := flag.Float64("delta2", 1, "vBS energy price δ2 (mu/W)")
	dmax := flag.Float64("dmax", 0.4, "max service delay in seconds")
	rmin := flag.Float64("rmin", 0.5, "min mAP")
	gridLevels := flag.Int("grid", 7, "control-grid levels per dimension")
	gridPerDim := flag.String("grid-levels", "", "comma-separated per-dimension level counts res,air,gpu,mcs[,split] (overrides -grid)")
	splitLayers := flag.Int("split-layers", 0, "levels of the split-inference control dimension (0 = pinned at all-edge)")
	acqName := flag.String("acquisition", "auto", "acquisition engine: auto, exhaustive, or adaptive")
	seed := flag.Int64("seed", 1, "random seed")
	quiet := flag.Bool("quiet", false, "suppress per-period lines")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (empty disables)")
	ckptDir := flag.String("checkpoint-dir", "", "commit agent checkpoints into this directory (empty disables)")
	ckptEvery := flag.Int("checkpoint-every", 10, "checkpoint interval in periods (with -checkpoint-dir)")
	resume := flag.String("resume", "", "warm-start from this checkpoint file; \"latest\" resolves via -checkpoint-dir")
	engineName := flag.String("engine", "exact", "GP inference engine: exact, sparse, or auto (convert when history reaches the switch threshold)")
	inducing := flag.Int("inducing", 0, "sparse-engine inducing-point budget (0 = default 128)")
	fleetN := flag.Int("fleet", 0, "run an N-cell fleet instead of a single loop (0 disables)")
	fleetWorkers := flag.Int("fleet-workers", 0, "fleet worker-pool size (0 = default)")
	warmNeighbors := flag.Int("warm-neighbors", 0, "with -fleet: admit one joiner warm-started from its K most similar neighbors (0 disables)")
	flag.Parse()

	engine, err := parseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	acq, err := parseAcquisition(*acqName)
	if err != nil {
		fatal(err)
	}
	grid, err := buildGrid(*gridLevels, *gridPerDim, *splitLayers)
	if err != nil {
		fatal(err)
	}

	if *fleetN > 0 {
		fleetMain(fleetParams{
			cells:     *fleetN,
			workers:   *fleetWorkers,
			neighbors: *warmNeighbors,
			periods:   *periods,
			users:     *users,
			snr:       *snr,
			weights:   core.CostWeights{Delta1: *delta1, Delta2: *delta2},
			cons:      core.Constraints{MaxDelay: *dmax, MinMAP: *rmin},
			grid:      grid,
			seed:      *seed,
			engine:    engine,
			acq:       acq,
			inducing:  *inducing,
			metrics:   *metricsAddr,
			quiet:     *quiet,
		})
		return
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		go func() { _ = http.Serve(ln, telemetry.Mux(reg)) }() // lives until exit
		fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())
	}

	us := make([]ran.User, *users)
	for i := range us {
		us[i] = ran.User{SNRdB: *snr - 2*float64(i)}
	}
	tb, err := testbed.New(testbed.DefaultConfig(), us, *seed)
	if err != nil {
		fatal(err)
	}
	tb.Instrument(reg)
	w := core.CostWeights{Delta1: *delta1, Delta2: *delta2}
	cons := core.Constraints{MaxDelay: *dmax, MinMAP: *rmin}
	opts := core.Options{
		Grid: grid, Weights: w, Constraints: cons, Telemetry: reg,
		Engine: engine, InducingPoints: *inducing, Acquisition: acq,
	}
	agent, err := loadOrNewAgent(opts, *resume, *ckptDir)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("acquisition: %s over %d candidates\n", agent.AcquisitionEngine(), grid.Size())
	}
	var ckpt *oran.Checkpointer
	if *ckptDir != "" {
		ckpt, err = oran.NewCheckpointer(*ckptDir, *ckptEvery)
		if err != nil {
			fatal(err)
		}
		ckpt.Instrument(reg)
	}
	if t0 := agent.Observations(); t0 > 0 {
		fmt.Printf("resumed from %s at period %d\n", *resume, t0)
	}

	var costs []float64
	violations := 0
	for t := 0; t < *periods; t++ {
		x, k, info, err := agent.Step(tb)
		if err != nil {
			fatal(err)
		}
		if ckpt != nil {
			if path, err := ckpt.Tick(agent); err != nil {
				fatal(err)
			} else if path != "" && !*quiet {
				fmt.Printf("checkpoint: %s\n", path)
			}
		}
		cost := w.Cost(k)
		costs = append(costs, cost)
		viol := ""
		if !cons.Satisfied(k) {
			viol = " VIOLATION"
			if t >= *periods/3 {
				violations++
			}
		}
		if !*quiet {
			split := ""
			if grid.LevelsPerDim[4] > 1 {
				split = fmt.Sprintf(" spl %.2f", x.SplitLayer)
			}
			fmt.Printf("t=%3d  x=[res %.2f air %.2f gpu %.2f mcs %.2f%s]  d=%.3fs mAP=%.3f  ps=%.1fW pb=%.2fW  u=%.1f  |S|=%d%s\n",
				t, x.Resolution, x.Airtime, x.GPUSpeed, x.MCS, split,
				k.Delay, k.MAP, k.ServerPower, k.BSPower, cost, info.SafeSetSize, viol)
		}
	}

	tail := costs
	if len(tail) > 25 {
		tail = tail[len(tail)-25:]
	}
	fmt.Printf("\nconverged cost (median of last %d): %.1f mu\n", len(tail), experiment.Median(tail))
	fmt.Printf("constraint violations after burn-in: %d/%d periods\n", violations, *periods-*periods/3)

	if grid.Size() > 1<<18 {
		fmt.Printf("oracle: skipped (exhaustive search over %d candidates)\n", grid.Size())
		return
	}
	xo, oc, err := bandit.Oracle(tb.Expected, grid, w, cons)
	if err != nil {
		fmt.Printf("oracle: %v\n", err)
		return
	}
	fmt.Printf("oracle (exhaustive search): cost %.1f mu at [res %.2f air %.2f gpu %.2f mcs %.2f]\n",
		oc, xo.Resolution, xo.Airtime, xo.GPUSpeed, xo.MCS)
	fmt.Printf("optimality gap: %.1f%%\n", 100*(experiment.Median(tail)-oc)/oc)
}

// fleetParams carries the -fleet mode's resolved flags.
type fleetParams struct {
	cells, workers, neighbors int
	periods, users            int
	snr                       float64
	weights                   core.CostWeights
	cons                      core.Constraints
	grid                      core.GridSpec
	seed                      int64
	engine                    core.EngineSelector
	acq                       core.AcquisitionMode
	inducing                  int
	metrics                   string
	quiet                     bool
}

// fleetMain runs the -fleet mode: N cells behind one coordinator, each
// with its own O-RAN control plane, plus an optional warm-started joiner.
func fleetMain(p fleetParams) {
	var reg *telemetry.Registry
	if p.metrics != "" {
		reg = telemetry.NewRegistry()
		ln, err := net.Listen("tcp", p.metrics)
		if err != nil {
			fatal(err)
		}
		go func() { _ = http.Serve(ln, telemetry.Mux(reg)) }() // lives until exit
		fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())
	}
	us := make([]ran.User, p.users)
	for i := range us {
		us[i] = ran.User{SNRdB: p.snr - 2*float64(i)}
	}
	slice := multislice.SliceConfig{
		Name:          "cell",
		AirtimeBudget: 0.9,
		GPUShare:      0.9,
		Users:         us,
		Weights:       p.weights,
		Constraints:   p.cons,
	}
	opts := fleet.Options{
		Cells:    fleet.Cells(p.cells, slice),
		Agent:    core.Options{Grid: p.grid, Engine: p.engine, InducingPoints: p.inducing, Acquisition: p.acq},
		Workers:  p.workers,
		BaseSeed: p.seed,
		WarmStart: fleet.WarmStartPolicy{
			Neighbors: p.neighbors,
		},
		Telemetry: reg,
	}
	f, err := fleet.New(context.Background(), opts)
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }()
	fmt.Printf("fleet: %d cells, %d periods\n", p.cells, p.periods)
	for t := 0; t < p.periods; t++ {
		res, err := f.Step()
		if err != nil {
			fatal(err)
		}
		if !p.quiet {
			var cost, power float64
			viol := 0
			for _, r := range res {
				cost += r.Cost
				power += r.KPIs.ServerPower + r.KPIs.BSPower
				if !r.Satisfied {
					viol++
				}
			}
			fmt.Printf("t=%3d  fleet cost=%.1f mu  power=%.1f W  violations=%d/%d\n",
				t, cost, power, viol, len(res))
		}
	}
	sum := f.Summary()
	fmt.Printf("\nfleet summary: %d cells, %d periods, total cost %.1f mu, %d violations, last-period power %.1f W\n",
		sum.Cells, sum.Periods, sum.TotalCost, sum.Violations, sum.PowerWatts)

	if p.neighbors > 0 {
		joiner := slice
		joiner.Name = "joiner"
		cell, seeded, err := f.AddCell(context.Background(), fleet.CellConfig{Name: "joiner", Slice: joiner})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("joiner: warm-started with %d pooled samples from %d neighbors\n", seeded, p.neighbors)
		warm := firstSafePeriod(cell.Agent, cell.Env, p.periods)
		coldEnv, err := multislice.NewSliceEnv(testbed.DefaultConfig(), joiner, cell.Seed)
		if err != nil {
			fatal(err)
		}
		coldAgent, err := core.NewAgent(core.Options{
			Grid: p.grid, Weights: p.weights, Constraints: p.cons,
			Engine: p.engine, InducingPoints: p.inducing, Acquisition: p.acq,
		})
		if err != nil {
			fatal(err)
		}
		cold := firstSafePeriod(coldAgent, coldEnv, p.periods)
		fmt.Printf("periods to first safe learned period: warm %s, cold %s\n",
			periodsString(warm, p.periods), periodsString(cold, p.periods))
	}
}

// firstSafePeriod steps the agent until it first picks a learned
// (non-seed) control that satisfies the constraints; 0 means never
// within the horizon.
func firstSafePeriod(agent *core.Agent, env core.Environment, maxPeriods int) int {
	cons := agent.Constraints()
	for t := 1; t <= maxPeriods; t++ {
		_, k, info, err := agent.Step(env)
		if err != nil {
			fatal(err)
		}
		if !info.FromSeed && cons.Satisfied(k) {
			return t
		}
	}
	return 0
}

func periodsString(p, horizon int) string {
	if p == 0 {
		return fmt.Sprintf(">%d", horizon)
	}
	return fmt.Sprintf("%d", p)
}

// parseEngine maps the -engine flag onto the core selector.
func parseEngine(name string) (core.EngineSelector, error) {
	switch name {
	case "exact":
		return core.EngineExact, nil
	case "sparse":
		return core.EngineSparse, nil
	case "auto":
		return core.EngineAuto, nil
	}
	return 0, fmt.Errorf("unknown -engine %q (want exact, sparse, or auto)", name)
}

// parseAcquisition maps the -acquisition flag onto the core mode.
func parseAcquisition(name string) (core.AcquisitionMode, error) {
	switch name {
	case "auto":
		return core.AcqAuto, nil
	case "exhaustive":
		return core.AcqExhaustive, nil
	case "adaptive":
		return core.AcqAdaptive, nil
	}
	return 0, fmt.Errorf("unknown -acquisition %q (want auto, exhaustive, or adaptive)", name)
}

// buildGrid resolves -grid, -grid-levels, and -split-layers into one
// GridSpec: -grid-levels replaces the uniform count per dimension (a
// fifth entry opens the split dimension), and -split-layers overrides the
// split dimension's count on either base.
func buildGrid(levels int, perDim string, splitLayers int) (core.GridSpec, error) {
	g := core.GridSpec{Levels: levels, MinResolution: 0.1, MinAirtime: 0.1}
	if perDim != "" {
		parts := strings.Split(perDim, ",")
		if len(parts) != 4 && len(parts) != 5 {
			return g, fmt.Errorf("-grid-levels wants 4 or 5 comma-separated counts, got %q", perDim)
		}
		for i, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || n < 1 {
				return g, fmt.Errorf("-grid-levels entry %q is not a positive count", p)
			}
			g.LevelsPerDim[i] = n
		}
	}
	if splitLayers < 0 {
		return g, fmt.Errorf("-split-layers %d is negative", splitLayers)
	}
	if splitLayers > 0 {
		g.LevelsPerDim[4] = splitLayers
	}
	return g, nil
}

// loadOrNewAgent builds the agent, warm-starting from a checkpoint when
// -resume names a file (or "latest", resolved against -checkpoint-dir).
func loadOrNewAgent(opts core.Options, resume, dir string) (*core.Agent, error) {
	if resume == "" {
		return core.NewAgent(opts)
	}
	path := resume
	if resume == "latest" {
		if dir == "" {
			return nil, fmt.Errorf("-resume latest requires -checkpoint-dir")
		}
		var err error
		path, err = checkpoint.Latest(dir)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadCheckpoint(f, opts)
}

// ckptMain implements the ckpt subcommand: offline inspection of snapshot
// files and directories, no agent construction involved.
func ckptMain(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: edgebol-sim ckpt {info PATH | latest DIR}")
		os.Exit(2)
	}
	switch args[0] {
	case "info":
		f, err := os.Open(args[1])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		info, err := core.ReadCheckpointInfo(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("format version: %d\n", info.Version)
		fmt.Printf("periods:        %d\n", info.Periods)
		fmt.Printf("decomposed:     %v\n", info.DecomposedCost)
		fmt.Printf("engine:         %s\n", info.Engine)
		fmt.Printf("acquisition:    %s\n", info.Acquisition)
		if info.Engine != "exact" {
			fmt.Printf("inducing:       %d\n", info.InducingPoints)
		}
		if info.Engine == "auto" {
			fmt.Printf("switch at:      %d\n", info.SparseSwitchAt)
		}
		for _, o := range info.Objectives {
			if o.Engine == "sparse" {
				fmt.Printf("objective %-12s %d observations (sparse, basis %d)\n",
					o.Name, o.Observations, o.InducingPoints)
				continue
			}
			fmt.Printf("objective %-12s %d observations\n", o.Name, o.Observations)
		}
	case "latest":
		path, err := checkpoint.Latest(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(path)
	default:
		fmt.Fprintf(os.Stderr, "unknown ckpt subcommand %q\n", args[0])
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
