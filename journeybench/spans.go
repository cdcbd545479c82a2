package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the call. Times are nanoseconds since the child process
// started recording. Parent indexes into the same span list (-1 for a
// root). Synthetic spans carry a duration the program measured itself
// (an obs phase total): they are placed at their parent's start and
// count as child time without claiming a real interval.
type Span struct {
	Name      string `json:"name"`
	Tag       string `json:"tag,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Sample    int    `json:"sample"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once the child
// ends. Spans nest by call order: begin pushes, end pops.
type recorder struct {
	t0     time.Time
	sample int
	spans  []Span
	stack  []int
}

func newRecorder(sample int) *recorder {
	return &recorder{t0: time.Now(), sample: sample}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name, tag string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Tag: tag, Start: r.now(), Parent: parent, Sample: r.sample})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) time.Duration {
	n := len(r.stack)
	if n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("journeybench: span %q closed out of order", r.spans[id].Name))
	}
	r.stack = r.stack[:n-1]
	r.spans[id].End = r.now()
	return r.spans[id].Dur()
}

// time runs fn inside a span and returns its duration.
func (r *recorder) time(name, tag string, fn func() error) (time.Duration, error) {
	id := r.begin(name, tag)
	err := fn()
	return r.end(id), err
}

// synthetic adds a child of the innermost open span with duration d.
func (r *recorder) synthetic(name, tag string, d time.Duration) {
	if d <= 0 {
		return
	}
	parent := r.stack[len(r.stack)-1]
	start := r.spans[parent].Start
	r.spans = append(r.spans, Span{Name: name, Tag: tag, Start: start, End: start + int64(d),
		Parent: parent, Sample: r.sample, Synthetic: true})
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d
}

// joinSpans concatenates the spans of several samples into one list,
// with each Parent index shifted to point into it.
func joinSpans(samples []*sample) []Span {
	var out []Span
	for _, s := range samples {
		base := len(out)
		for _, sp := range s.Spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			out = append(out, sp)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []Span) []time.Duration {
	kids := make([][]Span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.Dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time per span name.
func layerSelf(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// printSelfSummary writes each layer's self time summed over the traced
// samples, largest first, with its share of their total wall time.
func printSelfSummary(w io.Writer, spans []Span) {
	var wall time.Duration
	n := 0
	for _, s := range spans {
		if s.Parent < 0 && s.Name == "sample" {
			wall += s.Dur()
			n++
		}
	}
	self := layerSelf(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by layer over %d traced samples (wall %.3fs):\n", n, wall.Seconds())
	for _, n := range names {
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(self[n]) / float64(wall)
		}
		fmt.Fprintf(w, "  %-22s %9.4fs %6.2f%%\n", n, self[n].Seconds(), pct)
	}
}
