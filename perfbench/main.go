package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// setupReps is how many extra set-ups each untraced run times before its
// episodes, so that setup_s is a median of several.
const setupReps = 8

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured run; sets its number of episodes")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger of a traced run")
	steadyRuns := fs.Int("steady", 0, "run N times on consecutive seeds and report each metric's spread")
	work := fs.String("work", os.TempDir(), "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if *steadyRuns > 0 {
		return steady(stdout, stderr, *steadyRuns, *name, *seed, *seconds, *trace, *work)
	}
	rep, err := measure(s, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// measure runs one workload at one seed. Untraced, it times set-up and
// the episodes, reads peak RSS, then scores learning quality against the
// oracle. Traced, it runs half the episodes, each untraced and then
// traced, and reports the per-layer ledger.
func measure(s spec, seed int64, seconds float64, traced bool, work string) (*report, error) {
	dir, err := os.MkdirTemp(work, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	episodes := max(1, int(math.Round(seconds*s.perSecond)))
	if traced {
		episodes = max(1, episodes/2)
	}
	r := newRunner(s, seed, episodes, runtime.NumCPU(), dir)
	rep := &report{workload: s.name, seed: seed}
	if steal0, ok := stealSeconds(); ok {
		defer func() {
			if steal1, ok := stealSeconds(); ok {
				rep.notes = append(rep.notes, fmt.Sprintf(
					"CPU time the hypervisor stole from this machine during the run: %.2f s", steal1-steal0))
			}
		}()
	}
	if !traced {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			d, err := r.setUp(ctx)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		eps := make([]*episode, len(r.seeds))
		for e := range eps {
			if eps[e], err = r.episode(ctx, e, nil, nil); err != nil {
				return nil, err
			}
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		for _, ep := range eps {
			setups = append(setups, ep.setup.Seconds())
		}
		rep.tally(eps)
		ratio, met, err := r.quality(eps)
		if err != nil {
			return nil, err
		}
		rep.endToEnd(eps, setups, ratio, met, rss)
		return rep, nil
	}
	// Untraced and traced episodes alternate, so that drift in the host's
	// speed falls on both sides of the overhead estimate.
	tr, led := newTracer(), &ledger{}
	var base, eps []*episode
	var gc uint32
	for e := range r.seeds {
		plain, err := r.episode(ctx, e, nil, nil)
		if err != nil {
			return nil, err
		}
		gc0 := numGC()
		traced, err := r.episode(ctx, e, tr, led)
		if err != nil {
			return nil, err
		}
		gc += numGC() - gc0
		traced.check("traced replay of the untraced controls", sameTrajectory(plain.traj, traced.traj))
		base, eps = append(base, plain), append(eps, traced)
	}
	rep.tally(append(append([]*episode(nil), base...), eps...))
	spans := tr.snapshot()
	rep.perLayer(s, spans, led, base, eps, gc, r.workers)
	path := fmt.Sprintf("%s/spans-%s-seed%d.tsv", work, s.name, seed)
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

func sameTrajectory(want, got []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d cell-periods, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("cell-period %d chose control %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kB
}

// stealSeconds reads the machine's accumulated steal time from
// /proc/stat: CPU time the hypervisor gave to other guests. Other guests'
// load is the main source of run-to-run spread on a shared host.
func stealSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return jiffies / 100, true // USER_HZ
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
