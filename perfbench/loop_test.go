package main

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestTracedEpisodeReplaysUntraced drives tiny versions of the
// single-cell and fleet loops once untraced and once traced: every output
// check passes, tracing leaves the control trajectory unchanged, and the
// traced run records every layer's spans.
func TestTracedEpisodeReplaysUntraced(t *testing.T) {
	small := core.GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1}
	for _, s := range []spec{
		{name: "cell", periods: 6, grid: small, walk: true, ckptEvery: 2},
		{name: "fleet", periods: 3, cells: 3, grid: small, engine: core.EngineSparse, inducing: 8},
	} {
		t.Run(s.name, func(t *testing.T) {
			r := newRunner(s, 3, 1, 2, t.TempDir())
			ctx := context.Background()
			base, err := r.episode(ctx, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, led := newTracer(), &ledger{}
			traced, err := r.episode(ctx, 0, tr, led)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range []*episode{base, traced} {
				if ep.failed != 0 || ep.done != s.periods*max(s.cells, 1) {
					t.Fatalf("episode: %d done, %d failed: %v", ep.done, ep.failed, ep.problems)
				}
			}
			if err := sameTrajectory(base.traj, traced.traj); err != nil {
				t.Fatalf("tracing changed the trajectory: %v", err)
			}
			seen := map[string]int{}
			for _, sp := range tr.snapshot() {
				seen[sp.name]++
			}
			want := []string{"period", "oran.context", "core.select", "oran.measure", "core.observe"}
			if s.cells > 0 {
				want = append(want, "fleet.step")
			} else {
				want = append(want, "testbed.measure", "checkpoint.save")
			}
			for _, name := range want {
				if seen[name] == 0 {
					t.Errorf("no %s spans; saw %v", name, seen)
				}
			}
			if s.cells > 0 {
				ratio, met, err := r.quality([]*episode{base})
				if err != nil || ratio <= 0 || met <= 0 {
					t.Errorf("quality = %v, %v, %v", ratio, met, err)
				}
			}
		})
	}
}
