// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it drives the EdgeBOL control loop through public
// calls only — testbed.New → oran.Deploy → core.NewAgent (or fleet.New),
// then per period Deployment.Env().Context → Agent.SelectControl →
// Env().MeasureCtx → Agent.Observe, plus Checkpointer().Tick where the
// workload checkpoints — checks every period's outputs, and prints each
// metric by name, unit and sample count, with a one-line JSON summary
// last. From the repository root:
//
//	bash perfbench/run.sh --workload paper-static --seed 1 --seconds 20 --trace 0
//
// run.sh builds the binary and keeps the build cache and scratch files
// under .bench_build. --steady N runs the workload on seeds seed …
// seed+N−1, one process after another, and prints each metric's median,
// quartiles (as Python's statistics.quantiles) and spread (Q3−Q1)/median.
//
// # Runs
//
// All load comes from this one process, on at most runtime.NumCPU worker
// goroutines, and the loop is closed: a cell starts period t+1 only after
// period t's Observe returned. A run is a fixed number of episodes,
// --seconds × a per-workload rate, sized to take about --seconds on a
// 2-vCPU host. An episode is one set-up followed by a fixed number of
// periods, on its own seed drawn from --seed, so a run averages over
// independent trajectories and every quality metric repeats exactly for
// a seed. --trace 1 runs half the episodes, each untraced and then
// traced: the traced controls must equal the untraced ones.
//
// Every run checks, counting each failure against the operations
// attempted: each chosen control round-trips through GridSpec.Index and
// At; KPIs are finite; Agent.Observations equals the completed periods;
// at each episode's end an agent restored by SaveCheckpoint and
// LoadCheckpoint chooses the same next control as the live one. A run
// with a failure prints "correct": false and exits 1.
//
// # Workloads
//
// All use δ = (1, 8), d^max = 0.4 s and ρ^min = 0.5 (the paper's Fig. 9).
//
//   - paper-static: the 11⁴ grid, exact engine, exhaustive acquisition,
//     one user at 35 dB, a checkpoint every 50 periods; 100 periods per
//     episode.
//   - channel-dynamics: the same agent; the user's SNR walks in integer
//     steps of up to ±3 dB per period within [15, 35] dB, set through
//     Testbed.SetSNR before each period.
//   - fleet-coarse: fleet.New with 16 cells on the 3-level grid (81
//     controls), sparse engine with 32 inducing points, Workers = NumCPU,
//     one user per cell at a static SNR in [16, 35] dB (no control on
//     this grid meets the constraints at 15 dB); 100 steps per episode.
//     Latency metrics time one Fleet.Step.
//   - split-biggrid: the 31⁴×8 split-inference grid of experiment.BigGrid
//     with AcqAuto (so the adaptive engine runs), exact engine, one user
//     at 35 dB; 50 periods per episode.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: median wall time from the first constructor call to when
//     the first period can start, over eight extra set-ups and each
//     episode's own.
//   - period.p50_ms, period.p95_ms: period latency (a Fleet.Step on
//     fleet-coarse); the table also gives the highest percentile with at
//     least ten samples beyond it.
//   - periods_per_s: cell-periods per second of period-loop wall time.
//   - cost_ratio: mean over episodes of the mean, over the episode's
//     final quarter, of the noise-free cost of the chosen control divided
//     by the oracle's cost in that period's context; cost_gap_pct is
//     100·(cost_ratio − 1). The oracle runs after the timed run on twin
//     testbeds, streams the grid through GridSpec.At, and is memoised per
//     SNR.
//   - constraint_met_rate: share of periods whose measured KPIs met both
//     constraints (1 − violation_rate).
//   - success_rate: 1 − failed ÷ attempted (1 − error_rate).
//   - peak_rss_mb: getrusage max RSS after the timed run, before the
//     oracle.
//
// The rates are reported in their never-zero complements so that a
// relative bound applies to them.
//
// # Per-layer metrics (--trace 1)
//
// Spans are kept in memory — name, start, end, parent, period — and
// written to .bench_build/spans-<workload>-seed<N>.tsv. A layer's self
// time is its span minus the union of its child spans. core.select
// covers core, gp and linalg together. Each metric, the end-to-end
// metric it should move, and the workload that shows it:
//
//	core.select.p50_ms, .p95_ms, .share     period.*, periods_per_s   paper-static, channel-dynamics, split-biggrid
//	core.select.candidates_per_period,
//	  .candidate_ratio, .refine_rounds      period.*                  split-biggrid
//	core.select.alloc_kb_per_period         period.p95_ms, peak_rss   paper-static (single-cell workloads only)
//	core.select.seed_fallback_rate,
//	  .safe_set_mean                        cost_ratio, met rate      paper-static, channel-dynamics
//	core.observe.p50_ms, .p95_ms            period.p95_ms             paper-static
//	oran.context.p50_ms, oran.measure.*,
//	  oran.share                            period.*, periods_per_s   fleet-coarse
//	oran.transport.self_p50_ms,
//	  testbed.measure.p50_ms                periods_per_s             fleet-coarse (predicted), paper-static
//	oran.control_mismatch_rate              cost_ratio, met rate      split-biggrid
//	checkpoint.save.p50_ms, .bytes          periods_per_s, peak_rss   paper-static
//	fleet.step.p50_ms, .straggler_ratio,
//	  .parallel_efficiency                  period.p95_ms, per_s      fleet-coarse
//	runtime.gc.cycles                       period.p95_ms             all
//	trace.overhead_ms                       (tracing cost itself)     all
//
// testbed.measure and oran.control_mismatch_rate come from a decorator
// around the testbed that oran.Deploy drives, so they exist on the
// single-cell workloads only; a layer a workload does not run reports 0
// with an "n/a" note. oran.control_mismatch_rate is the share of periods
// in which the control that reached the testbed differs from the one the
// agent chose.
package main
