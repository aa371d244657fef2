package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/multislice"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// expecter is a twin environment's noise-free KPI surface.
type expecter interface {
	Expected(core.Control) (core.KPIs, error)
}

// oracleCost returns the cheapest noise-free cost among the grid controls
// that meet the constraints. It streams the grid through GridSpec.At, one
// contiguous shard per twin, since a testbed is not safe for concurrent
// use and a multi-million-point grid must not be materialized.
func oracleCost(grid core.GridSpec, twins []expecter) (float64, error) {
	n, w := grid.Size(), len(twins)
	best := make([]float64, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for j := range twins {
		go func(j int) {
			defer wg.Done()
			b := math.Inf(1)
			for i := j * n / w; i < (j+1)*n/w; i++ {
				k, err := twins[j].Expected(grid.At(i))
				if err != nil {
					errs[j] = err
					return
				}
				if constraints.Satisfied(k) {
					b = math.Min(b, weights.Cost(k))
				}
			}
			best[j] = b
		}(j)
	}
	wg.Wait()
	b := math.Inf(1)
	for j := range best {
		if errs[j] != nil {
			return 0, fmt.Errorf("oracle: %w", errs[j])
		}
		b = math.Min(b, best[j])
	}
	if math.IsInf(b, 1) {
		return 0, fmt.Errorf("oracle: no control on the grid meets %+v", constraints)
	}
	return b, nil
}

// twin is a noise-free copy of one cell's environment, built from the
// same inputs: a testbed, or for fleet cells the cell's slice view of one.
type twin struct {
	expecter
	tb *testbed.Testbed
}

func (r *runner) newTwin(seed int64) (twin, error) {
	users := []ran.User{{SNRdB: staticSNR}}
	if r.spec.cells > 0 {
		opts := r.spec.fleetOptions(seed, []float64{staticSNR}, r.workers)
		env, err := multislice.NewSliceEnv(opts.Base, opts.Cells[0].Slice, seed)
		if err != nil {
			return twin{}, err
		}
		return twin{env, env.Testbed()}, nil
	}
	tb, err := testbed.New(testbed.DefaultConfig(), users, seed)
	if err != nil {
		return twin{}, err
	}
	return twin{tb, tb}, nil
}

// quality scores the episodes against the oracle, off the clock: the
// mean over episodes of the cost ratio in each one's final quarter, and
// the share of all periods whose measured KPIs met the constraints. The
// oracle runs once per SNR on one twin per worker.
func (r *runner) quality(eps []*episode) (ratio, met float64, err error) {
	twins := make([]twin, r.workers)
	ex := make([]expecter, r.workers)
	for i := range twins {
		if twins[i], err = r.newTwin(r.seeds[0]); err != nil {
			return 0, 0, err
		}
		ex[i] = twins[i]
	}
	best := make(map[float64]float64)
	var ratios []float64
	ok, n := 0, 0
	for _, ep := range eps {
		if len(ep.recs) == 0 {
			return 0, 0, fmt.Errorf("an episode completed no period")
		}
		chosen := make([]float64, len(ep.recs))
		oracle := make([]float64, len(ep.recs))
		for j, rec := range ep.recs {
			for _, tw := range twins {
				tw.tb.SetSNR(rec.snr)
			}
			b, seen := best[rec.snr]
			if !seen {
				if b, err = oracleCost(r.spec.grid, ex); err != nil {
					return 0, 0, err
				}
				best[rec.snr] = b
			}
			k, err := twins[0].Expected(rec.x)
			if err != nil {
				return 0, 0, err
			}
			chosen[j], oracle[j] = weights.Cost(k), b
			if constraints.Satisfied(rec.kpis) {
				ok++
			}
			n++
		}
		ratios = append(ratios, costRatio(chosen, oracle))
	}
	return mean(ratios), float64(ok) / float64(n), nil
}
