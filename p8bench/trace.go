package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans nest
// through Parent (0 = root); spans of one p8d job share a parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no span cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
}

// spanAgg is the per-name roll-up of closed spans.
type spanAgg struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

// aggregate rolls closed spans up by name. A span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) aggregate() map[string]*spanAgg {
	out := map[string]*spanAgg{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	durations := map[string][]float64{}
	for _, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{Name: s.Name}
			out[s.Name] = a
		}
		d := float64(s.EndNs-s.StartNs) / 1e9
		a.Count++
		a.TotalS += d
		a.SelfS += d - float64(covered(s.StartNs, s.EndNs, children[s.ID]))/1e9
		durations[s.Name] = append(durations[s.Name], d)
	}
	for name, ds := range durations {
		out[name].MedianS = quantile(ds, 0.5)
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi] the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	cur := lo
	for _, iv := range sorted {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span and the per-name roll-up as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	aggs := t.aggregate()
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	rollup := make([]*spanAgg, 0, len(names))
	for _, n := range names {
		rollup = append(rollup, aggs[n])
	}
	t.mu.Lock()
	doc := struct {
		Spans  []span     `json:"spans"`
		Rollup []*spanAgg `json:"rollup"`
	}{Spans: t.spans, Rollup: rollup}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the per-name roll-up, largest self time first.
func (t *tracer) printSelfTimes(w io.Writer) {
	aggs := t.aggregate()
	list := make([]*spanAgg, 0, len(aggs))
	for _, a := range aggs {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].SelfS != list[j].SelfS {
			return list[i].SelfS > list[j].SelfS
		}
		return list[i].Name < list[j].Name
	})
	for _, a := range list {
		fmt.Fprintf(w, "span %-28s n=%-6d total=%9.4fs self=%9.4fs median=%.6fs\n", a.Name, a.Count, a.TotalS, a.SelfS, a.MedianS)
	}
}
