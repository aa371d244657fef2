package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one control
// period share a period ID; parent is the ID of the span that caused this
// one (-1 for a root).
type span struct {
	name   string
	id     int
	parent int
	period int
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run goes through the same calls.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, period int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, period: period, start: now, end: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// rename relabels span id once its outcome is known (a checkpoint tick
// that saved becomes checkpoint.save).
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].name = name
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its child spans. Children may nest further or
// overlap one another (concurrent cells under one fleet step); overlapping
// cover counts once. The result is indexed like spans, whose IDs must
// equal their positions.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[s.id] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered time.Duration
		var curLo, curHi time.Duration
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curLo, curHi, open = v[0], v[1], true
			case v[0] <= curHi:
				if v[1] > curHi {
					curHi = v[1]
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// writeSpans writes the spans as tab-separated lines: id, parent, period,
// name, start and end in nanoseconds since the tracer started.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tperiod\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.period, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write already failed
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
