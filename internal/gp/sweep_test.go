package gp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sweepLevels builds deterministic level values for a control grid with
// the given per-dimension level counts.
func sweepLevels(counts []int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	out := make([][]float64, len(counts))
	for d, c := range counts {
		lv := make([]float64, c)
		for l := range lv {
			lv[l] = float64(l)/float64(c) + 0.05*rng.Float64()
		}
		out[d] = lv
	}
	return out
}

// enumerateGrid builds the joint feature rows of the grid under a fixed
// context, last control dimension fastest — the order SweepPlan (and
// core.GridSpec.Enumerate) uses.
func enumerateGrid(ctx []float64, levels [][]float64) [][]float64 {
	rows := [][]float64{append([]float64(nil), ctx...)}
	for _, lv := range levels {
		next := make([][]float64, 0, len(rows)*len(lv))
		for _, r := range rows {
			for _, v := range lv {
				next = append(next, append(append([]float64(nil), r...), v))
			}
		}
		rows = next
	}
	return rows
}

// sweepTestGP builds a GP over ctxDims+ctrlDims features with n random
// observations (inputs need not lie on the grid).
func sweepTestGP(t *testing.T, kernel func([]float64) Kernel, ctxDims, ctrlDims, n, window int, seed int64) *GP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := ctxDims + ctrlDims
	ls := make([]float64, dims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	g := New(kernel(ls), 2e-3, window)
	addSweepObs(t, g, n, rng)
	return g
}

func addSweepObs(t *testing.T, g *GP, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := make([]float64, g.dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		if err := g.Add(x, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
}

// gridIndices returns the identity index list 0..n-1: SweepSubset over it
// sweeps the whole grid in enumeration order.
func gridIndices(n int) []int32 {
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

// requireSweepMatches asserts that the plan's full-grid sweep reproduces
// the generic engine bitwise under every worker count.
func requireSweepMatches(t *testing.T, g *GP, p *SweepPlan, ctx []float64, levels [][]float64) {
	t.Helper()
	feats := enumerateGrid(ctx, levels)
	if len(feats) != p.GridSize() {
		t.Fatalf("enumerated %d rows, plan grid size %d", len(feats), p.GridSize())
	}
	refMu := make([]float64, len(feats))
	refSigma := make([]float64, len(feats))
	g.PosteriorBatch(feats, refMu, refSigma, BatchOptions{Workers: 1})
	for _, workers := range []int{1, 0, 2, 3, 8} {
		mu := make([]float64, len(feats))
		sigma := make([]float64, len(feats))
		p.SweepSubset(ctx, gridIndices(len(feats)), nil, [][]float64{mu}, [][]float64{sigma}, workers)
		for i := range feats {
			if !bitsEqual(mu[i], refMu[i]) || !bitsEqual(sigma[i], refSigma[i]) {
				t.Fatalf("workers=%d grid point %d: plan (%x, %x), generic (%x, %x)",
					workers, i, mu[i], sigma[i], refMu[i], refSigma[i])
			}
		}
	}
}

// TestSweepPlanMatchesGeneric pins the tentpole contract: across kernels,
// grid shapes, observation appends, and sliding-window evictions, the
// plan's grid sweep is bitwise identical to the generic posterior path
// for every worker count.
func TestSweepPlanMatchesGeneric(t *testing.T) {
	kernels := []struct {
		name string
		make func([]float64) Kernel
	}{
		{"matern32", func(ls []float64) Kernel { return NewMatern32(ls) }},
		{"matern52", func(ls []float64) Kernel { return NewMatern52(ls) }},
		{"rbf", func(ls []float64) Kernel { return NewRBF(ls) }},
	}
	shapes := []struct {
		ctxDims int
		counts  []int
	}{
		{3, []int{5, 4, 3, 4}}, // EdgeBOL's 3+4 layout
		{2, []int{4, 3, 5}},    // odd chain split
		{0, []int{6, 7}},       // no context at all
		{1, []int{9}},          // single control dimension
	}
	for _, k := range kernels {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%s/ctx=%d/dims=%d", k.name, shape.ctxDims, len(shape.counts)), func(t *testing.T) {
				const window = 48
				g := sweepTestGP(t, k.make, shape.ctxDims, len(shape.counts), 37, window, 101)
				levels := sweepLevels(shape.counts)
				p, err := NewSweepPlan([]*GP{g}, shape.ctxDims, levels)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				ctx := make([]float64, shape.ctxDims)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				requireSweepMatches(t, g, p, ctx, levels)

				// Grow the window: the plan appends table rows.
				addSweepObs(t, g, 8, rng)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				requireSweepMatches(t, g, p, ctx, levels)

				// Cross the sliding-window bound: eviction renumbers the
				// training rows and the plan must rebuild its tables.
				before := g.Evictions()
				addSweepObs(t, g, window, rng)
				if g.Evictions() == before {
					t.Fatal("expected an eviction")
				}
				requireSweepMatches(t, g, p, ctx, levels)
			})
		}
	}
}

// TestSweepPlanAcrossRefit mirrors a hyperparameter refit: a new kernel
// means a new GP and a new plan, which must again match the generic path.
func TestSweepPlanAcrossRefit(t *testing.T) {
	levels := sweepLevels([]int{4, 3, 4})
	ctx := []float64{0.3, 0.6, 0.1}
	for _, seed := range []int64{1, 2} {
		g := sweepTestGP(t, func(ls []float64) Kernel { return NewMatern32(ls) }, 3, 3, 25, 0, seed)
		p, err := NewSweepPlan([]*GP{g}, 3, levels)
		if err != nil {
			t.Fatal(err)
		}
		requireSweepMatches(t, g, p, ctx, levels)
	}
}

// TestSweepPlanEmptyGP sweeps before any observation: prior mean and
// variance everywhere, like the generic path.
func TestSweepPlanEmptyGP(t *testing.T) {
	g := New(NewMatern32([]float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	p, err := NewSweepPlan([]*GP{g}, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	requireSweepMatches(t, g, p, []float64{0.4}, levels)
}

// opaque wraps a kernel to defeat the plan's concrete-type dispatch.
type opaque struct{ Kernel }

// TestNewSweepPlanErrors covers the constructor's rejections.
func TestNewSweepPlanErrors(t *testing.T) {
	g := New(NewMatern32([]float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	cases := []struct {
		name string
		call func() error
	}{
		{"nil gp", func() error { _, err := NewSweepPlan(nil, 1, levels); return err }},
		{"foreign kernel", func() error {
			w := New(&opaque{NewMatern32([]float64{0.5, 0.5, 0.5})}, 1e-3, 0)
			_, err := NewSweepPlan([]*GP{w}, 1, levels)
			return err
		}},
		{"negative ctx dims", func() error { _, err := NewSweepPlan([]*GP{g}, -1, levels); return err }},
		{"no control dims", func() error { _, err := NewSweepPlan([]*GP{g}, 3, nil); return err }},
		{"dim mismatch", func() error { _, err := NewSweepPlan([]*GP{g}, 2, levels); return err }},
		{"empty dimension", func() error { _, err := NewSweepPlan([]*GP{g}, 1, [][]float64{{0.1}, {}}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.call() == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestSweepPlanTelemetry checks the build/refresh counters, row gauge and
// sweep histogram across the plan lifecycle — construction, append,
// eviction rebuild — on a three-member plan: every member's series
// reports the shared tables, and every member's sweep histogram observes
// each group sweep.
func TestSweepPlanTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	const window = 16
	names := []string{"cost", "delay", "map"}
	members := groupTestGPs(t, len(names), 1, 2, 10, window, false, 3)
	for k, g := range members {
		g.Instrument(reg, names[k])
	}
	levels := sweepLevels([]int{3, 3})
	p, err := NewSweepPlan(members, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	requireRows := func(stage string, want float64) {
		t.Helper()
		for _, name := range names {
			if got := reg.Gauge("edgebol_gp_sweep_plan_rows", "gp", name).Value(); got != want { //edgebol:allow floateq -- gauge stores the exact integer
				t.Fatalf("%s row gauge %v after %s, want %v", name, got, stage, want)
			}
		}
	}
	requireCounter := func(family, stage string, want uint64) {
		t.Helper()
		for _, name := range names {
			if got := reg.Counter(family, "gp", name).Value(); got != want {
				t.Fatalf("%s %s %d after %s, want %d", name, family, got, stage, want)
			}
		}
	}
	requireRows("construction", 10)
	ctx := []float64{0.5}
	all := gridIndices(p.GridSize())
	mu, sigma := groupOutputs(len(members), len(all))
	rng := rand.New(rand.NewSource(5))

	addGroupObs(t, members, 2, rng)
	p.SweepSubset(ctx, all, nil, mu, sigma, 1)
	requireCounter("edgebol_gp_sweep_plan_refreshes_total", "append", 1)
	requireRows("append", 12)

	addGroupObs(t, members, window, rng) // crosses the bound: eviction
	if members[0].Evictions() == 0 {
		t.Fatal("expected an eviction")
	}
	p.SweepSubset(ctx, all, nil, mu, sigma, 1)
	// The construction-time build is not counted: builds are rebuilds.
	requireCounter("edgebol_gp_sweep_plan_builds_total", "eviction", 1)
	for _, name := range names {
		h := reg.Histogram("edgebol_gp_sweep_seconds", telemetry.LatencyBuckets(), "gp", name, "engine", "exact")
		if got := h.Count(); got != 2 {
			t.Fatalf("%s sweep histogram observed %d sweeps, want 2", name, got)
		}
	}
}

// groupTestGPs builds k GPs that share one kernel and one input stream but
// differ in noise variance and targets — the shape of EdgeBOL's objective
// GPs — with n observations each. window bounds the exact engine's
// history; sparse selects the inducing-point engine with a small budget,
// so inserts and swaps happen within a few dozen observations.
func groupTestGPs(t *testing.T, k, ctxDims, ctrlDims, n, window int, sparse bool, seed int64) []*GP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ls := make([]float64, ctxDims+ctrlDims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	members := make([]*GP, k)
	for j := range members {
		noise := 2e-3 * float64(j+1)
		if sparse {
			g, err := NewSparse(NewMatern32(ls), noise, SparseConfig{MaxInducing: 8, SwapMargin: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			members[j] = g
		} else {
			members[j] = New(NewMatern32(ls), noise, window)
		}
	}
	addGroupObs(t, members, n, rng)
	return members
}

// addGroupObs feeds n random inputs to every member, each with its own
// target.
func addGroupObs(t *testing.T, members []*GP, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := make([]float64, members[0].dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		for _, g := range members {
			if err := g.Add(x, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// groupOutputs allocates one mu/sigma pair of length m per member.
func groupOutputs(k, m int) (mu, sigma [][]float64) {
	mu, sigma = make([][]float64, k), make([][]float64, k)
	for j := range mu {
		mu[j] = make([]float64, m)
		sigma[j] = make([]float64, m)
	}
	return mu, sigma
}

// requireGroupMatches asserts that the group plan's sweep over idxs
// reproduces every member's own PosteriorBatch bitwise, for workers 1, 2
// and 3.
func requireGroupMatches(t *testing.T, members []*GP, p *SweepPlan, ctx []float64, feats [][]float64, idxs []int32) {
	t.Helper()
	sel := make([][]float64, len(idxs))
	for j, gi := range idxs {
		sel[j] = feats[gi]
	}
	refMu, refSigma := groupOutputs(len(members), len(idxs))
	for k, g := range members {
		g.PosteriorBatch(sel, refMu[k], refSigma[k], BatchOptions{Workers: 1})
	}
	for _, workers := range []int{1, 2, 3} {
		mu, sigma := groupOutputs(len(members), len(idxs))
		p.SweepSubset(ctx, idxs, nil, mu, sigma, workers)
		for k := range members {
			for j := range idxs {
				if !bitsEqual(mu[k][j], refMu[k][j]) || !bitsEqual(sigma[k][j], refSigma[k][j]) {
					t.Fatalf("workers=%d member %d slot %d (grid %d): plan (%x, %x), PosteriorBatch (%x, %x)",
						workers, k, j, idxs[j], mu[k][j], sigma[k][j], refMu[k][j], refSigma[k][j])
				}
			}
		}
	}
}

// TestSweepPlanGroupMatchesSingle pins the group contract: a plan over 3
// or 4 GPs that share a kernel and inputs but not noise or targets gives
// each member exactly its own PosteriorBatch posteriors — on the exact
// engine, after sliding-window evictions, and on the sparse engine after
// inducing swaps — for every worker count, over the identity index list
// and a random one.
func TestSweepPlanGroupMatchesSingle(t *testing.T) {
	const ctxDims, window = 3, 24
	counts := []int{4, 3, 3, 4}
	levels := sweepLevels(counts)
	for _, sparse := range []bool{false, true} {
		for _, k := range []int{3, 4} {
			t.Run(fmt.Sprintf("sparse=%v/members=%d", sparse, k), func(t *testing.T) {
				members := groupTestGPs(t, k, ctxDims, len(counts), 20, window, sparse, int64(17+k))
				p, err := NewSweepPlan(members, ctxDims, levels)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(29 + k)))
				check := func(stage string) {
					t.Helper()
					ctx := make([]float64, ctxDims)
					for j := range ctx {
						ctx[j] = rng.Float64()
					}
					feats := enumerateGrid(ctx, levels)
					random := make([]int32, 150)
					for j := range random {
						random[j] = int32(rng.Intn(len(feats)))
					}
					t.Run(stage+"/identity", func(t *testing.T) {
						requireGroupMatches(t, members, p, ctx, feats, gridIndices(len(feats)))
					})
					t.Run(stage+"/random", func(t *testing.T) {
						requireGroupMatches(t, members, p, ctx, feats, random)
					})
				}
				check("initial")
				addGroupObs(t, members, 40, rng)
				if sparse {
					if members[0].InducingSwaps() == 0 {
						t.Fatal("expected an inducing swap")
					}
					check("swapped")
				} else {
					if members[0].Evictions() == 0 {
						t.Fatal("expected an eviction")
					}
					check("evicted")
				}
			})
		}
	}
}

// TestSweepPlanGroupRejectsMismatch covers the group constructor's
// rejections: every error names the member that differs from member 0.
func TestSweepPlanGroupRejectsMismatch(t *testing.T) {
	const ctxDims = 1
	levels := sweepLevels([]int{3, 4})
	base := func() []*GP { return groupTestGPs(t, 3, ctxDims, 2, 6, 0, false, 41) }
	cases := []struct {
		name   string
		member string
		build  func() []*GP
	}{
		{"nil member", "member 1", func() []*GP { m := base(); m[1] = nil; return m }},
		{"foreign kernel", "member 2", func() []*GP {
			m := base()
			m[2] = New(&opaque{NewMatern32([]float64{0.5, 0.5, 0.5})}, 1e-3, 0)
			return m
		}},
		{"kernel type", "member 1", func() []*GP {
			m := base()
			m[1] = New(NewMatern52(m[0].kernel.(*Matern32).LengthScales), 1e-3, 0)
			return m
		}},
		{"length scales", "member 2", func() []*GP {
			m := base()
			ls := append([]float64(nil), m[0].kernel.(*Matern32).LengthScales...)
			ls[1] = math.Nextafter(ls[1], 2)
			m[2] = New(NewMatern32(ls), 1e-3, 0)
			return m
		}},
		{"dimension", "member 1", func() []*GP {
			m := base()
			ls := append(append([]float64(nil), m[0].kernel.(*Matern32).LengthScales...), 0.7)
			m[1] = New(NewMatern32(ls), 1e-3, 0)
			return m
		}},
		{"basis length", "member 2", func() []*GP {
			m := base()
			addSweepObs(t, m[2], 1, rand.New(rand.NewSource(3)))
			return m
		}},
		{"engine", "member 1", func() []*GP {
			m := base()
			g, err := NewSparse(NewMatern32(m[0].kernel.(*Matern32).LengthScales), 1e-3, SparseConfig{})
			if err != nil {
				t.Fatal(err)
			}
			m[1] = g
			return m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSweepPlan(tc.build(), ctxDims, levels)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.member) {
				t.Fatalf("error %q does not name %s", err, tc.member)
			}
		})
	}
}

// TestSweepPlanGroupDivergencePanics pins the sweep-time guard: a member
// whose basis drifts from member 0's after construction stops the sweep
// with a panic naming it, instead of being solved against another
// member's columns.
func TestSweepPlanGroupDivergencePanics(t *testing.T) {
	members := groupTestGPs(t, 3, 1, 2, 6, 0, false, 43)
	p, err := NewSweepPlan(members, 1, sweepLevels([]int{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	addSweepObs(t, members[1], 1, rand.New(rand.NewSource(4)))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "member 1") {
			t.Fatalf("panic %q does not name member 1", msg)
		}
	}()
	idxs := gridIndices(p.GridSize())
	mu, sigma := groupOutputs(len(members), len(idxs))
	p.SweepSubset([]float64{0.5}, idxs, nil, mu, sigma, 1)
}

// TestResolveWorkers pins the auto-scaling policy: explicit counts are
// honored up to the shard cap, tiny sweeps stay serial, and large sweeps
// never exceed GOMAXPROCS.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(30, 100, 0); got != 1 {
		t.Fatalf("tiny sweep resolved to %d workers, want 1", got)
	}
	if got := ResolveWorkers(1000, 14641, 4); got != 4 {
		t.Fatalf("explicit request resolved to %d workers, want 4", got)
	}
	if got := ResolveWorkers(1000, 40, 64); got != 2 {
		t.Fatalf("shard cap resolved to %d workers, want 2", got)
	}
	if got := ResolveWorkers(0, 14641, 0); got != 1 {
		t.Fatalf("empty training set resolved to %d workers, want 1", got)
	}
	big := ResolveWorkers(100000, 100000, 0)
	if max := ResolveWorkers(100000, 100000, 1<<20); big > max {
		t.Fatalf("auto workers %d exceeded explicit cap %d", big, max)
	}
}

// gateSets returns the gate configurations TestSweepGateMatchesUngated
// sweeps under, cut from the reference means of a k-member plan so that
// every set keeps some candidates and drops others: an upper bound with a
// positive offset on member 0, a lower bound on the last member, both
// together, a band with a negative offset on a middle member, one gate
// that drops everything and one that keeps everything.
func gateSets(refMu [][]float64) map[string][]MeanGate {
	quantile := func(k int, q float64) float64 {
		v := append([]float64(nil), refMu[k]...)
		sort.Float64s(v)
		return v[int(q*float64(len(v)-1))]
	}
	last := len(refMu) - 1
	upper := MeanGate{Member: 0, Offset: 0.125, Lo: math.Inf(-1), Hi: quantile(0, 0.6) + 0.125}
	lower := MeanGate{Member: last, Lo: quantile(last, 0.3), Hi: math.Inf(1)}
	return map[string][]MeanGate{
		"nil":   nil,
		"upper": {upper},
		"lower": {lower},
		"both":  {upper, lower},
		"band":  {{Member: 1, Offset: -0.25, Lo: quantile(1, 0.2) - 0.25, Hi: quantile(1, 0.7) - 0.25}},
		"none":  {{Member: 1, Lo: math.Inf(1), Hi: math.Inf(1)}},
		"all":   {{Member: last, Lo: math.Inf(-1), Hi: math.Inf(1)}},
		"empty": {},
	}
}

// requireGatedMatches asserts the gated-sweep contract against the
// ungated reference over idxs: every mean bitwise equal; a candidate
// passing every gate — evaluated here from the reference means, as
// Lo <= μ+Offset <= Hi — has its σ bitwise equal for every member, any
// other σ = +Inf for every member; and the returned count is the number
// of passing candidates, which it returns. Workers 1, 2 and 3.
func requireGatedMatches(t *testing.T, p *SweepPlan, ctx []float64, idxs []int32, gates []MeanGate, refMu, refSigma [][]float64) int {
	t.Helper()
	k := len(refMu)
	want := 0
	for _, workers := range []int{1, 2, 3} {
		mu, sigma := groupOutputs(k, len(idxs))
		solved := p.SweepSubset(ctx, idxs, gates, mu, sigma, workers)
		want = 0
		for j := range idxs {
			pass := true
			for _, g := range gates {
				v := refMu[g.Member][j] + g.Offset
				pass = pass && v >= g.Lo && v <= g.Hi
			}
			if pass {
				want++
			}
			for m := 0; m < k; m++ {
				if !bitsEqual(mu[m][j], refMu[m][j]) {
					t.Fatalf("workers=%d member %d slot %d: gated μ %x, ungated %x", workers, m, j, mu[m][j], refMu[m][j])
				}
				switch {
				case pass && !bitsEqual(sigma[m][j], refSigma[m][j]):
					t.Fatalf("workers=%d member %d slot %d passes: gated σ %x, ungated %x", workers, m, j, sigma[m][j], refSigma[m][j])
				case !pass && !math.IsInf(sigma[m][j], 1):
					t.Fatalf("workers=%d member %d slot %d fails a gate: σ %v, want +Inf", workers, m, j, sigma[m][j])
				}
			}
		}
		if solved != want {
			t.Fatalf("workers=%d: SweepSubset reported %d solves, %d candidates pass", workers, solved, want)
		}
	}
	return want
}

// TestSweepGateMatchesUngated pins the mean-gate contract of SweepSubset:
// against the same plan's ungated sweep, means agree bitwise everywhere,
// σ agree bitwise wherever every gate passes and are +Inf exactly where a
// gate's expression fails — on the exact engine, after sliding-window
// evictions, and on the sparse engine after inducing swaps, for workers
// 1–3, over the identity and a random index list, with gates on any
// member, several at once, or none (nil).
func TestSweepGateMatchesUngated(t *testing.T) {
	const ctxDims, window, k = 3, 24, 3
	counts := []int{5, 4, 3, 4}
	levels := sweepLevels(counts)
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			members := groupTestGPs(t, k, ctxDims, len(counts), 20, window, sparse, 53)
			p, err := NewSweepPlan(members, ctxDims, levels)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(59))
			check := func(stage string) {
				ctx := make([]float64, ctxDims)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				random := make([]int32, 300)
				for j := range random {
					random[j] = int32(rng.Intn(p.GridSize()))
				}
				for _, list := range []struct {
					name string
					idxs []int32
				}{{"identity", gridIndices(p.GridSize())}, {"random", random}} {
					refMu, refSigma := groupOutputs(k, len(list.idxs))
					p.SweepSubset(ctx, list.idxs, nil, refMu, refSigma, 1)
					for name, gates := range gateSets(refMu) {
						t.Run(stage+"/"+list.name+"/"+name, func(t *testing.T) {
							pass := requireGatedMatches(t, p, ctx, list.idxs, gates, refMu, refSigma)
							switch name {
							case "none":
								if pass != 0 {
									t.Fatalf("%d candidates pass a gate nothing can meet", pass)
								}
							case "nil", "all", "empty":
								if pass != len(list.idxs) {
									t.Fatalf("%d of %d candidates pass", pass, len(list.idxs))
								}
							default:
								if pass == 0 || pass == len(list.idxs) {
									t.Fatalf("%d of %d candidates pass: the gates do not split the grid", pass, len(list.idxs))
								}
							}
						})
					}
				}
			}
			check("initial")
			addGroupObs(t, members, 40, rng)
			if sparse {
				if members[0].InducingSwaps() == 0 {
					t.Fatal("expected an inducing swap")
				}
				check("swapped")
			} else {
				if members[0].Evictions() == 0 {
					t.Fatal("expected an eviction")
				}
				check("evicted")
			}
		})
	}
}

// TestSweepGateEmptyBasis covers the prior-only sweep: before any
// observation the means are 0 and σ = √prior, or +Inf where a gate fails.
func TestSweepGateEmptyBasis(t *testing.T) {
	members := groupTestGPs(t, 2, 1, 2, 0, 0, false, 61)
	p, err := NewSweepPlan(members, 1, sweepLevels([]int{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	idxs := gridIndices(p.GridSize())
	prior := math.Sqrt(members[0].Kernel().Prior())
	for _, tc := range []struct {
		gates []MeanGate
		pass  bool
	}{
		{[]MeanGate{{Member: 1, Offset: 0.5, Lo: math.Inf(-1), Hi: 0.5}}, true},
		{[]MeanGate{{Member: 0, Offset: 0.5, Lo: math.Inf(-1), Hi: 0.25}}, false},
	} {
		mu, sigma := groupOutputs(2, len(idxs))
		solved := p.SweepSubset([]float64{0.3}, idxs, tc.gates, mu, sigma, 1)
		wantSigma, wantSolved := math.Inf(1), 0
		if tc.pass {
			wantSigma, wantSolved = prior, len(idxs)
		}
		if solved != wantSolved {
			t.Fatalf("gates %+v: %d solves, want %d", tc.gates, solved, wantSolved)
		}
		for m := range mu {
			for j := range idxs {
				if mu[m][j] != 0 || !bitsEqual(sigma[m][j], wantSigma) { //edgebol:allow floateq -- the prior mean is exactly 0
					t.Fatalf("gates %+v member %d slot %d: (%v, %v), want (0, %v)", tc.gates, m, j, mu[m][j], sigma[m][j], wantSigma)
				}
			}
		}
	}
}

// TestSweepGateRejectsMember pins the gate validation: a gate naming a
// member outside the plan panics instead of reading another slice.
func TestSweepGateRejectsMember(t *testing.T) {
	members := groupTestGPs(t, 2, 1, 2, 4, 0, false, 67)
	p, err := NewSweepPlan(members, 1, sweepLevels([]int{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "member 2") {
			t.Fatalf("panic %v, want one naming member 2", r)
		}
	}()
	idxs := gridIndices(p.GridSize())
	mu, sigma := groupOutputs(2, len(idxs))
	p.SweepSubset([]float64{0.3}, idxs, []MeanGate{{Member: 2, Hi: 1}}, mu, sigma, 1)
}
