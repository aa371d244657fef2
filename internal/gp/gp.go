package gp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// GP is a Gaussian-process regressor with zero prior mean and i.i.d.
// Gaussian observation noise of variance NoiseVar (the paper's ζ²).
//
// The regressor runs one of two engines behind the same interface:
//
//   - Exact (New, NewFromData): observations are added one at a time
//     (Add); the Cholesky factor of K_T + ζ²·I grows incrementally in
//     O(t²) per observation. An optional sliding window (MaxObservations)
//     bounds memory and per-step cost for long runs by discarding the
//     oldest observations via a factor downdate.
//   - Sparse (NewSparse, ConvertToSparse): an online inducing-point DTC
//     posterior over a fixed basis budget m; Add costs O(m²) and every
//     posterior query O(m²) regardless of t, which is what makes
//     unbounded-horizon runs affordable. The exact engine remains the
//     correctness oracle — equivalence tests bound the approximation
//     error at small t. In sparse mode MaxObservations is ignored:
//     eviction exists to cap exact-engine growth, and the basis budget
//     already bounds the sparse engine's costs, so eviction is a no-op
//     by design (history stays retained for basis insertions and
//     checkpointing; it is O(t·d) memory with no per-period cost).
//
// Training inputs are stored in one flat row-major matrix so the batched
// posterior sweep streams them cache-linearly through Kernel.EvalBatch.
//
// Concurrency: mutating calls (Add, RestoreFrom) must not run concurrently
// with anything else, but the read paths — Posterior, PosteriorBatch,
// LogMarginalLikelihood, Snapshot — touch no shared mutable state and are
// safe to call from multiple goroutines between mutations.
//
// The zero value is not usable; construct with New or NewFromData.
type GP struct {
	kernel   Kernel
	noiseVar float64
	dim      int

	xs    []float64 // flat row-major observed inputs, Len()×dim
	ys    []float64 // observed targets
	chol  *linalg.Cholesky
	alpha []float64 // (K + ζ²I)⁻¹ y

	maxObs int

	// sp holds the inducing-point engine state; nil selects the exact
	// engine. Set only at construction (NewSparse) or by the one-way
	// ConvertToSparse, never flipped back.
	sp *sparseState

	// evictions counts sliding-window evictions for diagnostics even when
	// telemetry is disabled; mutated only under the Add path, which is
	// single-writer by the concurrency contract above.
	evictions uint64
	met       gpMetrics
}

// gpMetrics holds the GP's pre-registered telemetry handles. The zero
// value (all nil) is the disabled state: every update no-ops.
type gpMetrics struct {
	observations *telemetry.Counter
	evictionsCtr *telemetry.Counter
	sweep        *telemetry.Histogram

	// Series of the SweepPlan this GP is a member of: table rebuilds after
	// construction, row appends, and the tabulated basis rows.
	planBuilds    *telemetry.Counter
	planRefreshes *telemetry.Counter
	planRows      *telemetry.Gauge

	// Sparse-engine series; nil (no-op) under the exact engine.
	inducing   *telemetry.Gauge
	insertsCtr *telemetry.Counter
	swapsCtr   *telemetry.Counter
}

// New returns a GP with the given kernel and observation-noise variance.
// maxObservations bounds the retained history (0 means unlimited); when the
// bound is hit the oldest half of the observations is discarded and the
// factor rebuilt, amortizing to O(t²) per step.
func New(kernel Kernel, noiseVar float64, maxObservations int) *GP {
	if kernel == nil {
		panic("gp: nil kernel")
	}
	if noiseVar <= 0 {
		panic(fmt.Sprintf("gp: noise variance %v must be positive", noiseVar))
	}
	if maxObservations < 0 {
		panic("gp: negative observation bound")
	}
	if maxObservations > 0 && maxObservations < 2 {
		panic("gp: observation bound must be at least 2")
	}
	return &GP{kernel: kernel, noiseVar: noiseVar, dim: kernel.Dim(), maxObs: maxObservations}
}

// NewFromData builds a GP on a full prior dataset at once: one Gram-matrix
// build and one O(n³) factorization instead of n incremental O(n²)
// appends. It validates like New plus per-observation like Add.
func NewFromData(kernel Kernel, noiseVar float64, maxObservations int, xs [][]float64, ys []float64) (*GP, error) {
	g := New(kernel, noiseVar, maxObservations)
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	if maxObservations > 0 && len(xs) > maxObservations {
		return nil, fmt.Errorf("gp: %d observations exceed the bound %d", len(xs), maxObservations)
	}
	if len(xs) == 0 {
		return g, nil
	}
	flat := make([]float64, 0, len(xs)*g.dim)
	for i, x := range xs {
		if len(x) != g.dim {
			return nil, fmt.Errorf("gp: input %d dimension %d does not match kernel dimension %d", i, len(x), g.dim)
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("gp: non-finite observation %v", ys[i])
		}
		flat = append(flat, x...)
	}
	chol, err := linalg.NewCholesky(gram(kernel, noiseVar, flat, len(xs)))
	if err != nil {
		return nil, err
	}
	g.xs = flat
	g.ys = append([]float64(nil), ys...)
	g.chol = chol
	g.refreshAlpha()
	return g, nil
}

// gram builds the noise-regularized kernel (Gram) matrix K + ζ²·I of the n
// flat row-major inputs. It is the single construction path shared by
// batch fitting (NewFromData, hyperparameter evidence) and the
// post-eviction factor rebuild.
func gram(k Kernel, noiseVar float64, xs []float64, n int) *linalg.Matrix {
	dim := k.Dim()
	m := linalg.NewMatrix(n, n)
	diag := k.Prior() + noiseVar
	for i := 0; i < n; i++ {
		row := m.Row(i)
		k.EvalBatch(xs, dim, xs[i*dim:(i+1)*dim], row[:i])
		for j := 0; j < i; j++ {
			m.Set(j, i, row[j])
		}
		row[i] = diag
	}
	return m
}

// Instrument registers this GP's telemetry series on reg, labeled with
// the objective name (e.g. "cost", "delay", "map"): observation and
// eviction counters plus the batched posterior-sweep latency histogram,
// labeled with the active engine so sparse and exact sweep latencies land
// in separate series, and the series of the SweepPlan the GP is swept
// through (table rebuild and refresh counters, tabulated-row gauge; a
// plan shared by several GPs reports through each member's series). Under
// the sparse engine it additionally registers the inducing-set gauge and
// insert/swap counters. Call it before plan construction and before
// concurrent use (and again after ConvertToSparse — registration is
// idempotent per series); a nil registry leaves telemetry disabled at
// zero cost on the inference hot path.
func (g *GP) Instrument(reg *telemetry.Registry, objective string) {
	g.met = gpMetrics{
		observations: reg.Counter("edgebol_gp_observations_total", "gp", objective),
		evictionsCtr: reg.Counter("edgebol_gp_evictions_total", "gp", objective),
		sweep: reg.Histogram("edgebol_gp_sweep_seconds", telemetry.LatencyBuckets(),
			"gp", objective, "engine", g.EngineName()),
		planBuilds:    reg.Counter("edgebol_gp_sweep_plan_builds_total", "gp", objective),
		planRefreshes: reg.Counter("edgebol_gp_sweep_plan_refreshes_total", "gp", objective),
		planRows:      reg.Gauge("edgebol_gp_sweep_plan_rows", "gp", objective),
	}
	if g.sp != nil {
		g.met.inducing = reg.Gauge("edgebol_gp_inducing_points", "gp", objective)
		g.met.insertsCtr = reg.Counter("edgebol_gp_inducing_inserts_total", "gp", objective)
		g.met.swapsCtr = reg.Counter("edgebol_gp_inducing_swaps_total", "gp", objective)
		g.met.inducing.Set(float64(g.sp.m))
	}
}

// Evictions returns the cumulative number of sliding-window evictions.
func (g *GP) Evictions() uint64 { return g.evictions }

// basisGen is the generation counter of the basis a sweep plan tabulates:
// whenever it moves, existing rows were renumbered and every distance
// table must be rebuilt. Exact engine: the eviction counter (an eviction
// drops leading training rows). Sparse engine: the swap counter (a swap
// replaces an inducing row in place; inserts only append and are handled
// by row-count growth).
func (g *GP) basisGen() uint64 {
	if g.sp != nil {
		return g.sp.swaps
	}
	return g.evictions
}

// Kernel returns the kernel in use.
func (g *GP) Kernel() Kernel { return g.kernel }

// NoiseVar returns the observation-noise variance ζ².
func (g *GP) NoiseVar() float64 { return g.noiseVar }

// Len returns the number of retained observations.
func (g *GP) Len() int { return len(g.ys) }

// Training returns copies of the GP's retained training inputs (flat
// row-major, Dim columns) and targets, oldest first. max > 0 caps the
// result to the most recent max rows; max <= 0 returns everything. It is
// the export half of cross-model observation pooling (see core's
// Agent.History): unlike Snapshot it carries no factors, so it stays
// O(n·d) however long the run.
func (g *GP) Training(max int) (xs []float64, ys []float64) {
	n := len(g.ys)
	if max > 0 && max < n {
		n = max
	}
	start := len(g.ys) - n
	xs = append([]float64(nil), g.xs[start*g.dim:]...)
	ys = append([]float64(nil), g.ys[start:]...)
	return xs, ys
}

// TrainingRow returns a read-only view of retained training input i
// (oldest first, i in [0, Len())) — no copy, valid until the next
// mutating call. It is the allocation-free accessor the adaptive
// acquisition engine uses to re-derive the observed grid anchors each
// period; both engines retain the full input history (the sparse engine
// keeps it for basis insertions and checkpointing).
func (g *GP) TrainingRow(i int) []float64 {
	return g.xs[i*g.dim : (i+1)*g.dim]
}

// basisLen returns the number of points a posterior query solves against:
// the inducing-set size under the sparse engine, the training size under
// the exact one. It is the n of every read path's O(n²) solve.
func (g *GP) basisLen() int {
	if g.sp != nil {
		return g.sp.m
	}
	return len(g.ys)
}

// basisXs returns the flat row-major inputs the cross-covariance is
// evaluated against — inducing inputs (sparse) or training inputs (exact).
func (g *GP) basisXs() []float64 {
	if g.sp != nil {
		return g.sp.zs
	}
	return g.xs
}

// Add incorporates the observation (x, y). The input is copied.
func (g *GP) Add(x []float64, y float64) error {
	if len(x) != g.dim {
		return fmt.Errorf("gp: input dimension %d does not match kernel dimension %d", len(x), g.dim)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("gp: non-finite observation %v", y)
	}
	if g.sp != nil {
		return g.addSparse(x, y)
	}
	if g.maxObs > 0 && g.Len() >= g.maxObs {
		g.evict(g.maxObs / 2)
	}
	n := g.Len()
	diag := g.kernel.Prior() + g.noiseVar
	if n == 0 {
		chol, err := linalg.NewCholesky(linalg.NewMatrixFrom(1, 1, []float64{diag}))
		if err != nil {
			return err
		}
		g.chol = chol
	} else {
		b := make([]float64, n)
		g.kernel.EvalBatch(g.xs, g.dim, x, b)
		if err := g.chol.Append(b, diag); err != nil {
			return err
		}
	}
	g.xs = append(g.xs, x...)
	g.ys = append(g.ys, y)
	g.refreshAlpha()
	g.met.observations.Inc()
	return nil
}

// evict drops the oldest dropCount observations, shrinking the factor
// with a downdate (linalg.Cholesky.DropLeading) instead of rebuilding the
// Gram matrix: only the dropped rows changed, and the retained block plus
// the dropped columns determine the shrunken factor without a single
// kernel re-evaluation — O(k·(t−k)²) arithmetic against the rebuild's
// O(t²·d) kernel evaluations + O(t³) refactorization. The downdated
// factor agrees with a fresh rebuild to rounding error, not bitwise (the
// equivalence tests pin the tolerance). Exact engine only: the sparse
// engine never evicts (see the type comment).
func (g *GP) evict(dropCount int) {
	g.xs = append([]float64(nil), g.xs[dropCount*g.dim:]...)
	g.ys = append([]float64(nil), g.ys[dropCount:]...)
	g.chol.DropLeading(dropCount)
	g.evictions++
	g.met.evictionsCtr.Inc()
}

func (g *GP) refreshAlpha() {
	g.alpha = append(g.alpha[:0], g.ys...)
	g.chol.SolveVec(g.alpha)
}

// Posterior returns the posterior mean and standard deviation at x
// (paper eq. 3–4). With no observations it returns the prior (0, √k(x,x)).
// It shares the exact arithmetic of the batched path, so single and batch
// queries agree bitwise.
func (g *GP) Posterior(x []float64) (mu, sigma float64) {
	if len(x) != g.dim {
		panic(fmt.Sprintf("gp: input dimension %d does not match kernel dimension %d", len(x), g.dim))
	}
	prior := g.kernel.Prior()
	n := g.basisLen()
	if n == 0 {
		//edgebol:allow nanguard -- prior variance is positive by the Kernel contract (Prior is k(x,x) > 0)
		return 0, math.Sqrt(prior)
	}
	k := make([]float64, n)
	g.kernel.EvalBatch(g.basisXs(), g.dim, x, k)
	if g.sp != nil {
		// DTC predictive: μ = kᵀα, σ² = prior − ‖L_mm⁻¹k‖² + ‖L_Σ⁻¹k‖².
		sp := g.sp
		mu = linalg.Dot(k, sp.alpha)
		kq := append([]float64(nil), k...)
		sp.cholKmm.ForwardSolveBatch([][]float64{kq})
		sp.cholSig.ForwardSolveBatch([][]float64{k})
		v := prior - linalg.Dot(kq, kq) + linalg.Dot(k, k)
		if v < 0 {
			v = 0
		}
		return mu, math.Sqrt(v)
	}
	mu = linalg.Dot(k, g.alpha)
	// v = L⁻¹ k; var = k(x,x) − ‖v‖².
	g.chol.ForwardSolveBatch([][]float64{k})
	v := prior - linalg.Dot(k, k)
	if v < 0 {
		v = 0
	}
	return mu, math.Sqrt(v)
}

// sweepTile is the number of candidates a posterior worker advances
// together; it matches linalg.PanelWidth so full tiles hit the fused
// interleaved-panel solve and shard boundaries stay tile-aligned.
const sweepTile = linalg.PanelWidth

// autoWorkPairs is the number of training-point × candidate pairs that
// justifies one worker when the caller requests automatic parallelism.
// One worker sweeps ~10⁸ pairs/s on commodity cores, so the threshold
// keeps sub-millisecond sweeps serial (goroutine fan-out would dominate)
// while the full 11⁴-point grid against a mature training window still
// fans out to every core.
const autoWorkPairs = 1 << 17

// ResolveWorkers maps a requested worker count to the effective degree of
// parallelism of a sweep of `candidates` posteriors against `trainLen`
// observations. Explicit requests (> 0) are honored; requested <= 0 scales
// the count with the total work n×m — tiny sweeps run serially instead of
// paying fan-out for sub-millisecond work, large ones use every core.
// Either way the count is capped by the number of tile-aligned shards.
// The resolution affects scheduling only, never results.
func ResolveWorkers(trainLen, candidates, requested int) int {
	if requested <= 0 {
		w := int(int64(trainLen) * int64(candidates) / autoWorkPairs)
		if w < 1 {
			w = 1
		}
		if p := runtime.GOMAXPROCS(0); w > p {
			w = p
		}
		requested = w
	}
	if maxShards := (candidates + sweepTile - 1) / sweepTile; requested > maxShards {
		requested = maxShards
	}
	return requested
}

// BatchOptions configure one batched posterior sweep. The zero value is
// the default: work-scaled parallelism.
type BatchOptions struct {
	// Workers is the explicit degree of parallelism: candidates are split
	// into contiguous tile-aligned shards evaluated by this many
	// goroutines, each with its own scratch buffers (the read path holds
	// no shared mutable state, so sharding is race-free by construction).
	// Workers <= 0 scales the count with the total work (see
	// ResolveWorkers); Workers == 1 runs serially on the calling
	// goroutine. Every candidate's arithmetic is independent of the
	// sharding, so results are bitwise identical for every setting.
	Workers int
}

// PosteriorBatch evaluates the posterior over a candidate set, writing the
// results into mu and sigma (each of length len(candidates)). It is the hot
// path of EdgeBOL's per-period safe-set and acquisition computation; opts
// controls the sharding (the zero BatchOptions selects work-scaled
// parallelism) and never affects the results.
func (g *GP) PosteriorBatch(candidates [][]float64, mu, sigma []float64, opts BatchOptions) {
	workers := opts.Workers
	if len(mu) != len(candidates) || len(sigma) != len(candidates) {
		panic("gp: PosteriorBatch output length mismatch")
	}
	// Sweep timing is gated on the handle so a nil registry adds exactly
	// one nil check to the hot path (the zero-overhead-when-disabled
	// contract the inference benchmarks hold the package to).
	if g.met.sweep != nil {
		start := time.Now()
		defer func() { g.met.sweep.ObserveDuration(time.Since(start)) }()
	}
	n := g.basisLen()
	if n == 0 {
		prior := math.Sqrt(g.kernel.Prior())
		for i := range candidates {
			mu[i] = 0
			sigma[i] = prior
		}
		return
	}
	workers = ResolveWorkers(n, len(candidates), workers)
	if workers <= 1 {
		g.posteriorRange(candidates, mu, sigma)
		return
	}
	// Tile-aligned contiguous shards keep every worker's inner loop on
	// full tiles (alignment affects speed only, never results).
	chunk := (len(candidates) + workers - 1) / workers
	chunk = (chunk + sweepTile - 1) / sweepTile * sweepTile
	var wg sync.WaitGroup
	for lo := 0; lo < len(candidates); lo += chunk {
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			g.posteriorRange(candidates[lo:hi], mu[lo:hi], sigma[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// posteriorRange evaluates one shard of candidates serially, advancing
// sweepTile candidates per pass through linalg's fused tiled solve (mean
// dot product and squared solve norm folded into the panel passes). The
// scratch buffers are local to the call: read-path inference shares no
// mutable state.
//
// Under the sparse engine each tile runs the fused solve twice against
// the two m-sized factors — Σ (mean and explained-variance term) and K_mm
// (Nyström term) — which is why the whole sweep is O(m²) per candidate
// regardless of the training size. The exact branch is untouched: its
// arithmetic is bit-for-bit the pre-sparse code.
//
//edgebol:hot
func (g *GP) posteriorRange(candidates [][]float64, mu, sigma []float64) {
	n := g.basisLen()
	bxs := g.basisXs()
	prior := g.kernel.Prior()
	tile := len(candidates)
	if tile > sweepTile {
		tile = sweepTile
	}
	buf := make([]float64, tile*n)
	views := make([][]float64, tile)
	for b := range views {
		views[b] = buf[b*n : (b+1)*n]
	}
	var buf2 []float64
	var views2 [][]float64
	if g.sp != nil {
		buf2 = make([]float64, tile*n)
		views2 = make([][]float64, tile)
		for b := range views2 {
			views2[b] = buf2[b*n : (b+1)*n]
		}
	}
	var solver linalg.FusedSolver
	var vsq, vsqNy, muNy [sweepTile]float64
	for lo := 0; lo < len(candidates); lo += tile {
		m := len(candidates) - lo
		if m > tile {
			m = tile
		}
		for b := 0; b < m; b++ {
			g.kernel.EvalBatch(bxs, g.dim, candidates[lo+b], views[b])
		}
		if g.sp != nil {
			copy(buf2, buf)
			solver.SolveFused(g.sp.cholSig, views[:m], g.sp.alpha, mu[lo:lo+m], vsq[:m])
			solver.SolveFused(g.sp.cholKmm, views2[:m], g.sp.zeroAlpha[:n], muNy[:m], vsqNy[:m])
			for b := 0; b < m; b++ {
				v := prior - vsqNy[b] + vsq[b]
				if v < 0 {
					v = 0
				}
				sigma[lo+b] = math.Sqrt(v)
			}
			continue
		}
		solver.SolveFused(g.chol, views[:m], g.alpha, mu[lo:lo+m], vsq[:m])
		for b := 0; b < m; b++ {
			v := prior - vsq[b]
			if v < 0 {
				v = 0
			}
			sigma[lo+b] = math.Sqrt(v)
		}
	}
}

// LogMarginalLikelihood returns the log evidence of the retained
// observations under the current kernel and noise:
//
//	log p(y|X) = −½ yᵀα − ½ log det(K+ζ²I) − (n/2) log 2π.
//
// Under the sparse engine it returns the DTC evidence assembled from the
// streamed moments (see sparseLML) — no history pass either way.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.sp != nil {
		return g.sparseLML()
	}
	n := g.Len()
	if n == 0 {
		return 0
	}
	return -0.5*linalg.Dot(g.ys, g.alpha) - 0.5*g.chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
}
