package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// TestObserveRejectsNonFiniteAtomically injects NaN and ±Inf into every
// KPI field and every floating-point context field, plus a finite delay
// whose normalized target overflows. Each rejected Observe must leave the
// agent exactly as it was: every GP's row count, the period counter, and
// the checkpoint bytes. The agent's next selection must then match an
// untouched twin's bitwise. The auto case sits on its switch period, so a
// rejected observation must not convert the engine either.
func TestObserveRejectsNonFiniteAtomically(t *testing.T) {
	const warm = 6
	modes := []struct {
		name string
		mut  func(*Options)
	}{
		{"joint cost", func(o *Options) {}},
		{"decomposed", func(o *Options) { o.DecomposedCost = true }},
		{"auto at switch", func(o *Options) {
			o.Engine = EngineAuto
			o.InducingPoints = 16
			o.SparseSwitchAt = warm
		}},
	}
	type injection struct {
		name string
		ctx  func(*Context, float64)
		kpi  func(*KPIs, float64)
	}
	injections := []injection{
		{"Delay", nil, func(k *KPIs, v float64) { k.Delay = v }},
		{"GPUDelay", nil, func(k *KPIs, v float64) { k.GPUDelay = v }},
		{"MAP", nil, func(k *KPIs, v float64) { k.MAP = v }},
		{"ServerPower", nil, func(k *KPIs, v float64) { k.ServerPower = v }},
		{"BSPower", nil, func(k *KPIs, v float64) { k.BSPower = v }},
		{"MeanCQI", func(c *Context, v float64) { c.MeanCQI = v }, nil},
		{"VarCQI", func(c *Context, v float64) { c.VarCQI = v }, nil},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			opts := testOptions()
			mode.mut(&opts)
			a, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			runAcqPeriods(t, a, 0, warm)
			runAcqPeriods(t, twin, 0, warm)

			ctx := scriptContext(warm)
			x, _ := a.SelectControl(ctx)
			twin.SelectControl(ctx)
			good := acqKPIs(warm, x)
			lens, engine := gpLens(a), a.EngineActive()
			var before bytes.Buffer
			if err := a.SaveCheckpoint(&before); err != nil {
				t.Fatal(err)
			}

			reject := func(name string, c Context, k KPIs) {
				t.Helper()
				if err := a.Observe(c, x, k); err == nil {
					t.Fatalf("%s: Observe accepted context %+v, KPIs %+v", name, c, k)
				}
				if got := gpLens(a); got != lens {
					t.Fatalf("%s: GP rows %v, want %v", name, got, lens)
				}
				if a.Observations() != warm || a.EngineActive() != engine {
					t.Fatalf("%s: period counter %d engine %s, want %d %s",
						name, a.Observations(), a.EngineActive(), warm, engine)
				}
				var after bytes.Buffer
				if err := a.SaveCheckpoint(&after); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after.Bytes(), before.Bytes()) {
					t.Fatalf("%s: checkpoint bytes changed", name)
				}
			}
			for _, inj := range injections {
				for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					c, k := ctx, good
					if inj.ctx != nil {
						inj.ctx(&c, v)
					} else {
						inj.kpi(&k, v)
					}
					reject(fmt.Sprintf("%s=%v", inj.name, v), c, k)
				}
			}
			overflow := good
			overflow.Delay = math.MaxFloat64 // finite, but its normalized target is +Inf
			reject("Delay=MaxFloat64", ctx, overflow)

			// The rejections left no trace: the agent carries on exactly
			// like its twin.
			if err := a.Observe(ctx, x, good); err != nil {
				t.Fatal(err)
			}
			if err := twin.Observe(ctx, x, good); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, a)
			assertSameSteps(t, runAcqPeriods(t, a, warm+1, warm+4), runAcqPeriods(t, twin, warm+1, warm+4))
		})
	}
}

// gpLens lists the row counts of the agent's cost, delay, mAP, server
// power and BS power GPs (0 for the power GPs of a joint-cost agent).
func gpLens(a *Agent) [numGPs + 2]int {
	var out [numGPs + 2]int
	for i, g := range a.gps {
		out[i] = g.Len()
	}
	for i, g := range a.powerGPs {
		if g != nil {
			out[numGPs+i] = g.Len()
		}
	}
	return out
}
