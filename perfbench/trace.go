package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from outside the
// layer. parent indexes the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int
}

// tracer keeps spans in memory until the run ends. It is safe for concurrent
// use: the service and artifact passes record from several goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	return now - t.spans[i].start
}

// spanStat summarises every span of one name.
type spanStat struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// stats folds the spans by name. A span's self time is its duration minus
// the part of its interval that its children cover (children of a pooled
// parent overlap, so their union is subtracted, not their sum).
func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := byName[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - t.covered(children[i])
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func (t *tracer) covered(idx []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		if s := t.spans[i]; s.end >= 0 {
			ivs = append(ivs, iv{s.start, s.end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			sum += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// write dumps the spans as JSON lines (name, start/end in ns, parent) to
// dir/name; an empty dir skips the dump.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle value (mean of the two middle ones for even n);
// 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
