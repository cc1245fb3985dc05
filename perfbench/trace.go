package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call into a layer, timed from outside the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory; a nil tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, op, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: ms(start)})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = ms(end)
		t.mu.Unlock()
	}
}

// record adds a finished span measured elsewhere.
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return id
}

// meanMS is the mean duration of the named spans (0 when there are none).
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, s.ms())
		}
	}
	return mean(xs)
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run of any workload prints all of them; a layer
// the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"segmentation.background_ms", "ms"},
	{"segmentation.frame_ms", "ms"},
	{"pose.calibrate_ms", "ms"},
	{"pose.fit_ms", "ms"},
	{"pose.fit_cpu_per_wall", "ratio"},
	{"ga.evaluations", "count"},
	{"ga.generations", "count"},
	{"ga.memo_hit_frac", "frac"},
	{"track.analyze_ms", "ms"},
	{"scoring.score_ms", "ms"},
	{"core.unattributed_frac", "frac"},
	{"server.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"journal.append_max_ms", "ms"},
	{"journal.appends", "count"},
	{"journal.bytes", "bytes"},
	{"journal.replay_s", "s"},
	{"events.deliver_ms", "ms"},
	{"cache.hit_frac", "frac"},
	{"artifacts.put_ms", "ms"},
	{"artifacts.pulls", "count"},
	{"server.submit_hit_ms", "ms"},
	{"server.submit_miss_ms", "ms"},
	{"dispatch.hop_ms", "ms"},
	{"dispatch.failovers", "count"},
	{"replica.dropped", "count"},
	{"host.steal_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// spanMetrics maps per-layer metrics that are plain span means to their
// span names.
var spanMetrics = map[string]string{
	"segmentation.background_ms": "segmentation.background",
	"segmentation.frame_ms":      "segmentation.frame",
	"pose.calibrate_ms":          "pose.calibrate",
	"pose.fit_ms":                "pose.fit",
	"track.analyze_ms":           "track.analyze",
	"scoring.score_ms":           "scoring.score",
	"server.submit_ms":           "server.submit",
	"events.deliver_ms":          "events.deliver",
	"artifacts.put_ms":           "artifacts.put",
	"server.submit_hit_ms":       "server.submit_hit",
	"server.submit_miss_ms":      "server.submit_miss",
}

// tracedReport assembles the --trace 1 result: the ops of both phases
// count as attempted, and the metrics are the per-layer set, span means
// first and then the counters the workload measured directly (layers).
func tracedReport(cfg runConfig, tr *tracer, plain, traced *phaseStats, setup []time.Duration, layers map[string]float64) (*result, error) {
	all := &phaseStats{ops: append(append([]opResult(nil), plain.ops...), traced.ops...)}
	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = len(all.ops), all.failedCount()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	values := map[string]float64{
		"host.steal_frac":           (plain.stealFrac + traced.stealFrac) / 2,
		"bench.trace_overhead_frac": p50(traced)/p50(plain) - 1,
	}
	for m, s := range spanMetrics {
		values[m] = tr.meanMS(s)
	}
	for k, v := range layers {
		values[k] = v
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	path := filepath.Join(cfg.SpanDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	writeRecord(cfg.Info, map[string]any{
		"workload":        cfg.Workload,
		"seed":            cfg.Seed,
		"trace":           true,
		"spans_file":      path,
		"untraced_ops":    len(plain.ops),
		"traced_ops":      len(traced.ops),
		"setup_samples_s": secondsOf(setup),
		"host":            describeHost(cfg.Procs, values["host.steal_frac"]),
		"failed_ops":      all.failures(),
		"accuracy_misses": all.misses(),
	})
	return res, nil
}

// p50 is the median latency of a phase's successful ops in milliseconds.
func p50(ph *phaseStats) float64 {
	var xs []float64
	for _, op := range ph.ops {
		if op.ok {
			xs = append(xs, ms(op.lat))
		}
	}
	if len(xs) == 0 {
		return 1
	}
	return median(xs)
}
