package core

import (
	"bytes"
	"math"
	"testing"
)

// livedPeriod is one raw (context, control, KPIs) triple an agent lived,
// the denormalized counterpart of a HistorySample.
type livedPeriod struct {
	ctx Context
	x   Control
	k   KPIs
}

// TestHistoryExportAligned checks the exported history mirrors the lived
// run: one sample per period, normalized features matching the lived
// (context, control) pairs, and the cap keeping the most recent samples.
func TestHistoryExportAligned(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a := newTestAgent(t, Constraints{MaxDelay: 0.9, MinMAP: 0.3})
	const periods = 12
	for i := 0; i < periods; i++ {
		if _, _, _, err := a.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	hist := a.History(0)
	if len(hist) != periods {
		t.Fatalf("exported %d samples, want %d", len(hist), periods)
	}
	for i, s := range hist {
		if len(s.Features) != ContextDims+ControlDims {
			t.Fatalf("sample %d has %d features", i, len(s.Features))
		}
	}
	capped := a.History(5)
	if len(capped) != 5 {
		t.Fatalf("capped export has %d samples, want 5", len(capped))
	}
	for i := range capped {
		full := hist[periods-5+i]
		if capped[i].Cost != full.Cost || capped[i].Delay != full.Delay || capped[i].MAP != full.MAP { //edgebol:allow floateq -- exported copies must be the exact stored values
			t.Fatalf("capped sample %d is not the tail of the full history", i)
		}
	}
}

// TestSeedHistoryBitwiseEquivalence is the warm-start contract: an agent
// seeded from a pooled history is bitwise identical — selections,
// posteriors, checkpoint bytes — to a fresh agent that observed that
// history directly through the normal Observe path.
func TestSeedHistoryBitwiseEquivalence(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	cons := Constraints{MaxDelay: 0.9, MinMAP: 0.3}

	// The donor lives 30 periods; its exported history is the pool.
	donor := newTestAgent(t, cons)
	lived := make([]livedPeriod, 0, 30)
	for i := 0; i < 30; i++ {
		c := env.Context()
		x, k, _, err := donor.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, donor)
		lived = append(lived, livedPeriod{ctx: c, x: x, k: k})
	}
	pool := donor.History(0)
	if len(pool) != len(lived) {
		t.Fatalf("pool has %d samples, want %d", len(pool), len(lived))
	}

	// Fresh agent A observes the lived periods directly.
	direct := newTestAgent(t, cons)
	for _, p := range lived {
		if err := direct.Observe(p.ctx, p.x, p.k); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, direct)
	}
	// Fresh agent B is seeded from the exported pool.
	warm := newTestAgent(t, cons)
	if err := warm.SeedHistory(pool); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, warm)

	if warm.Observations() != direct.Observations() {
		t.Fatalf("seeded t = %d, observed t = %d", warm.Observations(), direct.Observations())
	}
	// Selections over a spread of contexts must agree bitwise.
	for _, ctx := range []Context{
		{NumUsers: 1, MeanCQI: 15},
		{NumUsers: 3, MeanCQI: 9, VarCQI: 2},
		{NumUsers: 6, MeanCQI: 12, VarCQI: 5},
	} {
		xa, ia := direct.SelectControl(ctx)
		xb, ib := warm.SelectControl(ctx)
		if xa != xb {
			t.Fatalf("selections diverge at %+v: %+v vs %+v", ctx, xa, xb)
		}
		if ia.LCB != ib.LCB || ia.SafeSetSize != ib.SafeSetSize { //edgebol:allow floateq -- the warm-start contract is bitwise equality
			t.Fatalf("diagnostics diverge at %+v: %+v vs %+v", ctx, ia, ib)
		}
	}
	// And the serialized learned state must be byte-identical.
	var ba, bb bytes.Buffer
	if err := direct.SaveCheckpoint(&ba); err != nil {
		t.Fatal(err)
	}
	if err := warm.SaveCheckpoint(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("checkpoint bytes diverge between observed and seeded agents")
	}
}

// TestSeedHistoryValidation exercises the rejection paths: wrong
// dimension, non-finite values, decomposed-cost agents.
func TestSeedHistoryValidation(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 0.9, MinMAP: 0.3})
	if err := a.SeedHistory([]HistorySample{{Features: []float64{1, 2}}}); err == nil {
		t.Fatal("short feature row accepted")
	}
	bad := make([]float64, ContextDims+ControlDims)
	bad[0] = math.NaN()
	if err := a.SeedHistory([]HistorySample{{Features: bad}}); err == nil {
		t.Fatal("NaN feature accepted")
	}
	if a.Observations() != 0 {
		t.Fatalf("failed seeding advanced the period counter to %d", a.Observations())
	}

	dec, err := NewAgent(Options{
		Grid:           testGrid(),
		Weights:        CostWeights{Delta1: 1, Delta2: 1},
		Constraints:    Constraints{MaxDelay: 0.9, MinMAP: 0.3},
		Norm:           quadNorm(),
		DecomposedCost: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SeedHistory(nil); err == nil {
		t.Fatal("decomposed-cost agent accepted seeding")
	}
	if dec.History(0) != nil {
		t.Fatal("decomposed-cost agent exported a history")
	}
}
