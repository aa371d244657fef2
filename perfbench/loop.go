package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// record is one completed cell-period.
type record struct {
	ix      int // the chosen control's grid index
	snr     float64
	x       core.Control
	kpis    core.KPIs
	info    core.SelectionInfo
	altered bool // the testbed measured another control than x
}

// ledger collects what the traced episodes measure besides spans.
type ledger struct {
	allocKB   []float64   // bytes allocated by SelectControl, per period
	ckptBytes []float64   // size of each committed checkpoint
	steps     [][]float64 // fleet: each cell's period, ms, per step
	busy      float64     // fleet: Σ cell-period time, ms
	wall      float64     // fleet: Σ step wall time, ms
}

// period drives one control period through the public layer calls — the
// calls core.Agent.StepCtx makes, split so each layer is timed from
// outside — plus the checkpoint tick, and then checks the outputs. It
// returns the period's wall time, which excludes the checks.
func (l *loop) period(ctx context.Context, grid core.GridSpec, tr *tracer, led *ledger, pid, parent int) (record, time.Duration, error) {
	start := time.Now()
	ps := tr.begin("period", parent, pid)
	fail := func(err error) (record, time.Duration, error) {
		tr.end(ps)
		return record{}, time.Since(start), err
	}
	sp := tr.begin("oran.context", ps, pid)
	c := l.dep.Env().Context()
	tr.end(sp)
	if c.NumUsers == 0 {
		return fail(fmt.Errorf("context pull over O1 failed"))
	}
	countAlloc := led != nil && l.env != nil
	var before runtime.MemStats
	if countAlloc {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin("core.select", ps, pid)
	x, info := l.agent.SelectControl(c)
	tr.end(sp)
	if countAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		led.allocKB = append(led.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	sp = tr.begin("oran.measure", ps, pid)
	if l.env != nil {
		l.env.open(sp, pid, x)
	}
	k, err := l.dep.Env().MeasureCtx(ctx, x)
	tr.end(sp)
	if err != nil {
		return fail(fmt.Errorf("measure: %w", err))
	}
	sp = tr.begin("core.observe", ps, pid)
	err = l.agent.Observe(c, x, k)
	tr.end(sp)
	if err != nil {
		return fail(fmt.Errorf("observe: %w", err))
	}
	if ck := l.dep.Checkpointer(); ck != nil {
		sp = tr.begin("checkpoint.tick", ps, pid)
		path, err := ck.Tick(l.agent)
		tr.end(sp)
		if err != nil {
			return fail(fmt.Errorf("checkpoint: %w", err))
		}
		if path != "" {
			tr.rename(sp, "checkpoint.save")
			if led != nil {
				fi, err := os.Stat(path)
				if err != nil {
					return fail(fmt.Errorf("checkpoint: %w", err))
				}
				led.ckptBytes = append(led.ckptBytes, float64(fi.Size()))
			}
		}
	}
	tr.end(ps)
	busy := time.Since(start)
	rec := record{ix: grid.Index(x), x: x, kpis: k, info: info, altered: l.env != nil && l.env.altered()}
	return rec, busy, checkOutputs(grid, x, k)
}

// checkOutputs checks one period's outputs: the control is a grid point
// that round-trips through GridSpec.Index and At, and every KPI is finite.
func checkOutputs(grid core.GridSpec, x core.Control, k core.KPIs) error {
	if grid.At(grid.Index(x)) != x {
		return fmt.Errorf("control %+v does not round-trip through the grid", x)
	}
	for _, v := range []float64{k.Delay, k.GPUDelay, k.MAP, k.ServerPower, k.BSPower} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite KPIs %+v", k)
		}
	}
	return nil
}

// checkRestore saves the live agent, restores it into a fresh one, and
// checks that both choose the same next control.
func (l *loop) checkRestore() error {
	var buf bytes.Buffer
	if err := l.agent.SaveCheckpoint(&buf); err != nil {
		return fmt.Errorf("save checkpoint: %w", err)
	}
	restored, err := core.LoadCheckpoint(&buf, l.opts)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	c := l.dep.Env().Context()
	live, _ := l.agent.SelectControl(c)
	again, _ := restored.SelectControl(c)
	if live != again {
		return fmt.Errorf("restored agent chose %+v, live agent %+v", again, live)
	}
	return nil
}

// episode is one set-up followed by the workload's periods.
type episode struct {
	setup     time.Duration
	latency   []time.Duration // per completed period (fleet: per step)
	wall      time.Duration   // the whole period loop
	done      int             // completed cell-periods
	attempted int             // cell-periods plus end-of-episode checks
	failed    int
	problems  []string
	recs      []record // completed cell-periods in order
	traj      []int    // control index per attempted cell-period, -1 if failed
}

// maxProblems caps how many failure messages a run keeps for its report.
const maxProblems = 8

func (ep *episode) check(what string, err error) {
	ep.attempted++
	if err == nil {
		return
	}
	ep.failed++
	if len(ep.problems) < maxProblems {
		ep.problems = append(ep.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// runner runs the episodes of one workload. Each episode has its own
// seed, drawn from the run's seed, so a run averages over several
// independent trajectories, and running episode e again replays it.
type runner struct {
	spec    spec
	seeds   []int64
	workers int
	work    string // scratch directory for checkpoints
	dirs    int
}

func newRunner(s spec, seed int64, episodes, workers int, work string) *runner {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, episodes)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return &runner{spec: s, seeds: seeds, workers: workers, work: work}
}

func (r *runner) ckptDir() string {
	r.dirs++
	return fmt.Sprintf("%s/ckpt-%03d", r.work, r.dirs)
}

func (r *runner) episode(ctx context.Context, e int, tr *tracer, led *ledger) (*episode, error) {
	if r.spec.cells > 0 {
		return r.fleetEpisode(ctx, r.seeds[e], tr, led)
	}
	return r.cellEpisode(ctx, r.seeds[e], tr, led)
}

// setUp times one set-up of the first episode, from the first
// constructor call to when the first period can start, and tears it down
// again.
func (r *runner) setUp(ctx context.Context) (time.Duration, error) {
	seed := r.seeds[0]
	snr := r.spec.inputs(seed)
	start := time.Now()
	if r.spec.cells > 0 {
		f, err := fleet.New(ctx, r.spec.fleetOptions(seed, snr, r.workers))
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		return d, f.Close()
	}
	l, err := r.spec.newCell(ctx, seed, snr[0], r.ckptDir(), nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, l.dep.Close()
}

func (r *runner) cellEpisode(ctx context.Context, seed int64, tr *tracer, led *ledger) (*episode, error) {
	s := r.spec
	snr := s.inputs(seed)
	start := time.Now()
	l, err := s.newCell(ctx, seed, snr[0], r.ckptDir(), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep := &episode{setup: time.Since(start)}
	loopStart := time.Now()
	for t := 0; t < s.periods; t++ {
		if s.walk {
			l.env.setSNR(snr[t])
		}
		rec, busy, err := l.period(ctx, s.grid, tr, led, t, -1)
		if err == nil && l.agent.Observations() != ep.done+1 {
			err = fmt.Errorf("agent reports %d observations after %d periods", l.agent.Observations(), ep.done+1)
		}
		ep.check(fmt.Sprintf("period %d", t), err)
		if err != nil {
			ep.traj = append(ep.traj, -1)
			continue
		}
		rec.snr = snr[t]
		ep.done++
		ep.latency = append(ep.latency, busy)
		ep.recs = append(ep.recs, rec)
		ep.traj = append(ep.traj, rec.ix)
	}
	ep.wall = time.Since(loopStart)
	ep.check("checkpoint restore", l.checkRestore())
	if err := l.dep.Close(); err != nil {
		return nil, fmt.Errorf("close deployment: %w", err)
	}
	return ep, nil
}

// fleetEpisode runs the fleet. Untraced it drives Fleet.Step; traced it
// drives Fleet.Cells through the same per-cell calls as a single cell, on
// a pool of the same size.
func (r *runner) fleetEpisode(ctx context.Context, seed int64, tr *tracer, led *ledger) (*episode, error) {
	s := r.spec
	snr := s.inputs(seed)
	start := time.Now()
	f, err := fleet.New(ctx, s.fleetOptions(seed, snr, r.workers))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep := &episode{setup: time.Since(start)}
	cells := f.Cells()
	n := len(cells)
	loops := make([]*loop, n)
	for i, c := range cells {
		loops[i] = &loop{dep: c.Deployment, agent: c.Agent, opts: s.agentOptions()}
	}
	done := make([]int, n)
	loopStart := time.Now()
	for step := 0; step < s.periods; step++ {
		recs := make([]record, n)
		errs := make([]error, n)
		var lat time.Duration
		if tr == nil {
			t0 := time.Now()
			res, err := f.Step()
			lat = time.Since(t0)
			for i, cr := range res {
				if cr.Cell == "" {
					errs[i] = fmt.Errorf("step: %v", err)
					continue
				}
				recs[i] = record{ix: s.grid.Index(cr.Control), x: cr.Control, kpis: cr.KPIs, info: cr.Info}
				errs[i] = checkOutputs(s.grid, cr.Control, cr.KPIs)
			}
		} else {
			ss := tr.begin("fleet.step", -1, step)
			busy := make([]float64, n)
			t0 := time.Now()
			forEach(r.workers, n, func(i int) {
				var d time.Duration
				recs[i], d, errs[i] = loops[i].period(ctx, s.grid, tr, nil, step*n+i, ss)
				busy[i] = float64(d) / float64(time.Millisecond)
			})
			lat = time.Since(t0)
			tr.end(ss)
			led.steps = append(led.steps, busy)
			for _, b := range busy {
				led.busy += b
			}
			led.wall += float64(lat) / float64(time.Millisecond)
		}
		ok := 0
		for i := range cells {
			err := errs[i]
			if err == nil && cells[i].Agent.Observations() != done[i]+1 {
				err = fmt.Errorf("agent reports %d observations after %d periods", cells[i].Agent.Observations(), done[i]+1)
			}
			ep.check(fmt.Sprintf("step %d cell %d", step, i), err)
			if err != nil {
				ep.traj = append(ep.traj, -1)
				continue
			}
			rec := recs[i]
			rec.snr = snr[i]
			done[i]++
			ok++
			ep.recs = append(ep.recs, rec)
			ep.traj = append(ep.traj, rec.ix)
		}
		if ok > 0 {
			ep.done += ok
			ep.latency = append(ep.latency, lat)
		}
	}
	ep.wall = time.Since(loopStart)
	for i, l := range loops {
		ep.check(fmt.Sprintf("cell %d checkpoint restore", i), l.checkRestore())
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close fleet: %w", err)
	}
	return ep, nil
}

// forEach runs fn(i) for i in [0, n) on at most workers goroutines and
// returns when all have finished.
func forEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
