package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	note    string
}

// report is one run's outcome: failures, metrics and notes.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	ledger    []string // the traced run's self-time table
	notes     []string
}

func (rep *report) add(name, unit string, v float64, n int, note string) {
	rep.metrics = append(rep.metrics, metric{name: name, unit: unit, value: v, samples: n, note: note})
}

// na adds a metric whose layer does not run on this workload.
func (rep *report) na(name, unit string) { rep.add(name, unit, 0, 0, "n/a on this workload") }

func (rep *report) correct() bool { return rep.failed == 0 }

// tally sums the episodes' attempted and failed operations.
func (rep *report) tally(eps []*episode) {
	for _, ep := range eps {
		rep.attempted += ep.attempted
		rep.failed += ep.failed
		rep.problems = append(rep.problems, ep.problems...)
	}
}

// countAltered counts the periods whose testbed measured another control
// than the agent chose.
func countAltered(recs []record) int {
	n := 0
	for _, rec := range recs {
		if rec.altered {
			n++
		}
	}
	return n
}

func latencies(eps []*episode) []float64 {
	var out []float64
	for _, ep := range eps {
		out = append(out, millis(ep.latency)...)
	}
	return out
}

// endToEnd adds the metrics a user of the loop sees.
func (rep *report) endToEnd(eps []*episode, setups []float64, ratio, met, rss float64) {
	lat := latencies(eps)
	done, wall := 0, 0.0
	for _, ep := range eps {
		done += ep.done
		wall += ep.wall.Seconds()
	}
	n := len(lat)
	tail := tailPercentile(n)
	rep.add("setup_s", "s", median(setups), len(setups), "")
	rep.add("period.p50_ms", "ms", median(lat), n, "")
	rep.add("period.p95_ms", "ms", percentile(lat, 95), n,
		fmt.Sprintf("%d beyond; highest percentile with ≥%d beyond: p%d = %.3f ms", beyond(n, 95), minBeyond, tail, percentile(lat, tail)))
	rep.add("periods_per_s", "1/s", float64(done)/wall, done, "cell-periods per second of loop wall time")
	recs, quarter, altered := 0, 0, 0
	for _, ep := range eps {
		recs += len(ep.recs)
		quarter += len(ep.recs) / 4
		altered += countAltered(ep.recs)
	}
	rep.add("cost_ratio", "ratio", ratio, quarter, fmt.Sprintf("cost_gap_pct = %.3f", 100*(ratio-1)))
	rep.add("constraint_met_rate", "ratio", met, recs, fmt.Sprintf("violation_rate = %.4f", 1-met))
	rep.add("success_rate", "ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted,
		fmt.Sprintf("error_rate = %.4f", float64(rep.failed)/float64(rep.attempted)))
	rep.add("peak_rss_mb", "MB", rss, 1, "getrusage max RSS before the oracle runs")
	if altered > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"WARNING: in %d of %d periods the testbed measured another control than the agent chose", altered, recs))
	}
}

// perLayer adds the traced run's per-layer ledger. Layers the benchmark
// cannot time on a workload report 0 with an n/a note.
func (rep *report) perLayer(s spec, spans []span, led *ledger, base, eps []*episode, gc uint32, workers int) {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	total := map[string]float64{}
	selfTotal := map[string]float64{}
	for i, sp := range spans {
		d := float64(sp.end-sp.start) / 1e6
		durs[sp.name] = append(durs[sp.name], d)
		selfs[sp.name] = append(selfs[sp.name], float64(self[i])/1e6)
		total[sp.name] += d
		selfTotal[sp.name] += float64(self[i]) / 1e6
	}
	p := func(name string, q int) (float64, int) { return percentile(durs[name], q), len(durs[name]) }
	share := func(v float64) float64 { return v / total["period"] }

	v, n := p("core.select", 50)
	rep.add("core.select.p50_ms", "ms", v, n, "")
	v, n = p("core.select", 95)
	rep.add("core.select.p95_ms", "ms", v, n, "")
	rep.add("core.select.share", "ratio", share(total["core.select"]), n, "Σ select ÷ Σ period")

	var recs []record
	for _, ep := range eps {
		recs = append(recs, ep.recs...)
	}
	var cand, refine, seed, safe float64
	for _, rec := range recs {
		cand += float64(rec.info.CandidatesEvaluated)
		refine += float64(rec.info.RefineRounds)
		safe += float64(rec.info.SafeSetSize)
		if rec.info.FromSeed {
			seed++
		}
	}
	nr := float64(len(recs))
	rep.add("core.select.candidates_per_period", "count", cand/nr, len(recs), "")
	rep.add("core.select.candidate_ratio", "ratio", cand/nr/float64(s.grid.Size()), len(recs),
		fmt.Sprintf("grid of %d controls", s.grid.Size()))
	rep.add("core.select.refine_rounds", "count", refine/nr, len(recs), "")
	if s.cells == 0 {
		rep.add("core.select.alloc_kb_per_period", "kB", mean(led.allocKB), len(led.allocKB), "MemStats.TotalAlloc delta")
	} else {
		rep.na("core.select.alloc_kb_per_period", "kB")
	}
	rep.add("core.select.seed_fallback_rate", "ratio", seed/nr, len(recs), "")
	rep.add("core.select.safe_set_mean", "count", safe/nr, len(recs), "")

	v, n = p("core.observe", 50)
	rep.add("core.observe.p50_ms", "ms", v, n, "")
	v, n = p("core.observe", 95)
	rep.add("core.observe.p95_ms", "ms", v, n, "")
	v, n = p("oran.context", 50)
	rep.add("oran.context.p50_ms", "ms", v, n, "")
	v, n = p("oran.measure", 50)
	rep.add("oran.measure.p50_ms", "ms", v, n, "")
	v, n = p("oran.measure", 95)
	rep.add("oran.measure.p95_ms", "ms", v, n, "")
	rep.add("oran.share", "ratio", share(total["oran.context"]+total["oran.measure"]), n,
		"Σ (O1 context + A1/E2 measure, testbed included) ÷ Σ period")
	if s.cells == 0 {
		rep.add("oran.control_mismatch_rate", "ratio", float64(countAltered(recs))/nr, len(recs),
			"share of periods whose control reached the testbed altered")
		rep.add("oran.transport.self_p50_ms", "ms", median(selfs["oran.measure"]), len(selfs["oran.measure"]),
			"MeasureCtx minus its testbed.measure child")
		v, n = p("testbed.measure", 50)
		rep.add("testbed.measure.p50_ms", "ms", v, n, "")
	} else {
		rep.na("oran.control_mismatch_rate", "ratio")
		rep.na("oran.transport.self_p50_ms", "ms")
		rep.na("testbed.measure.p50_ms", "ms")
	}
	if s.ckptEvery > 0 {
		v, n = p("checkpoint.save", 50)
		rep.add("checkpoint.save.p50_ms", "ms", v, n, "")
		rep.add("checkpoint.bytes", "B", mean(led.ckptBytes), len(led.ckptBytes), "mean per save")
	} else {
		rep.na("checkpoint.save.p50_ms", "ms")
		rep.na("checkpoint.bytes", "B")
	}
	if s.cells > 0 {
		v, n = p("fleet.step", 50)
		rep.add("fleet.step.p50_ms", "ms", v, n, "")
		rep.add("fleet.straggler_ratio", "ratio", stragglerRatio(led.steps), len(led.steps), "mean over steps of max ÷ mean cell-period")
		w := min(workers, s.cells)
		rep.add("fleet.parallel_efficiency", "ratio", parallelEfficiency(led.busy, led.wall, w), len(led.steps),
			fmt.Sprintf("Σ cell busy ÷ (Σ step wall × %d workers)", w))
	} else {
		rep.na("fleet.step.p50_ms", "ms")
		rep.na("fleet.straggler_ratio", "ratio")
		rep.na("fleet.parallel_efficiency", "ratio")
	}
	rep.add("runtime.gc.cycles", "count", float64(gc), 1, "during the traced episodes")
	untraced, traced := latencies(base), latencies(eps)
	rep.add("trace.overhead_ms", "ms", median(traced)-median(untraced), len(traced),
		fmt.Sprintf("traced period.p50 %.3f ms (n=%d) − untraced %.3f ms (n=%d)", median(traced), len(traced), median(untraced), len(untraced)))

	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return selfTotal[names[i]] > selfTotal[names[j]] })
	rep.ledger = append(rep.ledger, fmt.Sprintf("%-18s %7s %11s %12s %13s %10s", "span", "count", "p50 ms", "total ms", "self total ms", "self share"))
	for _, name := range names {
		rep.ledger = append(rep.ledger, fmt.Sprintf("%-18s %7d %11.4f %12.1f %13.1f %10.4f",
			name, len(durs[name]), percentile(durs[name], 50), total[name], selfTotal[name], share(selfTotal[name])))
	}
	ctl := selfTotal["oran.context"] + selfTotal["oran.measure"] + selfTotal["testbed.measure"]
	rep.ledger = append(rep.ledger, fmt.Sprintf("O-RAN + testbed self %.1f ms vs core.select self %.1f ms", ctl, selfTotal["core.select"]))
}

// print writes the human-readable table and then, as the last line, the
// JSON summary.
func (rep *report) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d: %d attempted, %d failed\n", rep.workload, rep.seed, rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Fprintf(&b, "  FAILED %s\n", p)
	}
	fmt.Fprintf(&b, "%-36s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	metrics := map[string]any{}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(&b, "%-36s %14.6g %-6s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, l := range rep.ledger {
		fmt.Fprintln(&b, l)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(&b, n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct(), "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
