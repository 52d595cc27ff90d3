package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer, timed on the host
// clock relative to the start of the run.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for none
	Session string `json:"session,omitempty"`
}

// tracer keeps the benchmark's own spans in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per call.  All spans are opened and closed on the benchmark's main
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int, session string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, StartNs: time.Since(t.t0).Nanoseconds(), EndNs: -1,
		Parent: parent, Session: session,
	})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

// durations returns the durations in microseconds of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the total and self time: a span's
// self time is its duration minus the part of it that its child spans
// cover.
func selfTimes(spans []span) []spanSummary {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*spanSummary{}
	for i, s := range spans {
		if s.EndNs < 0 {
			continue
		}
		covered := coveredNs(s, spans, children[i])
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		sum.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs is the length of the union of the child intervals, clipped
// to the parent.
func coveredNs(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.EndNs < 0 {
			continue
		}
		a, b := max(c.StartNs, parent.StartNs), min(c.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	first := true
	for _, v := range ivs {
		if first || v.a > end {
			total += v.b - v.a
			end = v.b
			first = false
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
