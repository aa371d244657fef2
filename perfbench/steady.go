package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// summary is the JSON line a run prints last.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steady runs the workload n times, one process after another on seeds
// seed … seed+n−1, and reports per metric the median, the quartiles and
// the spread (Q3 − Q1) ÷ median that bounds are set from.
func steady(stdout, stderr io.Writer, n int, workload string, seed int64, seconds float64, trace int, work string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--work", work)
		cmd.Stderr = stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || runErr != nil || !sum.Correct {
			fmt.Fprintf(stdout, "seed %d: run failed (%v)\n%s\n", s, runErr, out)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "seed %d: %d attempted, %d failed\n", s, sum.Attempted, sum.Failed)
		for name, m := range sum.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-36s %-6s %12s %12s %12s %8s  values\n", "metric", "unit", "median", "Q1", "Q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		var vs []string
		for _, x := range v {
			vs = append(vs, strconv.FormatFloat(x, 'g', 6, 64))
		}
		fmt.Fprintf(&b, "%-36s %-6s %12.6g %12.6g %12.6g %8.4f  %s\n", name, units[name], med, q1, q3, spread, strings.Join(vs, " "))
	}
	if _, err := stdout.Write(b.Bytes()); err != nil {
		return 1
	}
	return status
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method); with fewer than three values it returns min, median, max.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n < 3 {
		return x[0], (x[0] + x[n-1]) / 2, x[n-1]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j, delta := i*(n+1)/4, i*(n+1)%4
		hi := j
		if hi > n-1 {
			hi = n - 1
		}
		q[i-1] = (x[j-1]*float64(4-delta) + x[hi]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
