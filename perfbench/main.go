// Command perfbench is the repository's end-to-end benchmark: three seeded,
// closed-loop workloads driven from one process, each printing its metrics
// as one JSON object on the last line of standard output.
//
//	go run . --workload analyze_batch --seed 1 --seconds 15 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - analyze_batch: one client runs the full in-process pipeline
//     (core.Analyzer.Run) over a mix of synthetic clips.
//   - serve_upload: nproc clients upload distinct clips as multipart PPM to
//     a journaled in-process server and wait on each job's SSE stream.
//   - fleet_byhash: nproc clients send by-hash requests through a dispatch
//     front end over two replicating worker nodes.
//
// --seconds sets each workload's op count (its nominal rate times the
// seconds), so every run of a workload does the same work. --trace 0
// prints the end-to-end metrics; --trace 1 runs the first half of the ops
// untraced and the second half traced, and prints the per-layer metrics
// derived from the spans, which it also writes to a file under the work
// directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation of a workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Procs is GOMAXPROCS and the client count of the served workloads.
	Procs int
	// WorkDir holds the run's journals and is removed afterwards; SpanDir
	// keeps the span file of a traced run.
	WorkDir string
	SpanDir string
	// MaxOps, when positive, caps the op count (the smoke test runs tiny
	// op counts).
	MaxOps int
	// PlantWrong corrupts the expected output of the first op, so the
	// check must count it as failed.
	PlantWrong bool
	// Info receives the human-readable and JSON record lines printed
	// before the result.
	Info io.Writer
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"analyze_batch": runAnalyzeBatch,
	"serve_upload":  runServeUpload,
	"fleet_byhash":  runFleetByHash,
}

func main() {
	var (
		workload = flag.String("workload", "", "analyze_batch, serve_upload or fleet_byhash")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "nominal length of the timed phase in seconds; sets the op count")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for journals and span files")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	procs := hostProcs()
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Procs: procs, WorkDir: *workDir, Info: os.Stdout,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload in a fresh subdirectory of cfg.WorkDir.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.SpanDir, cfg.WorkDir = cfg.WorkDir, dir
	return workloads[cfg.Workload](ctx, cfg)
}

// report assembles the result line from the timed phase's ops, and prints
// the record line that names the host and the tail percentile. Each
// workload fixes its tail percentile: the highest of p50, p75, p90, p99
// and p99.9 that has at least ten samples beyond it at the workload's op
// count on a 2-CPU host; the record says how many lay beyond it in this
// run. A percentile that moved with the run's op count would jump between
// rungs from run to run.
func report(cfg runConfig, ph *phaseStats, setup []time.Duration, tailPct float64, extra map[string]any) *result {
	res := &result{Metrics: map[string]metric{}}
	okN := 0
	lats := make([]float64, 0, len(ph.ops))
	sloOK := 0
	for _, op := range ph.ops {
		if op.ok {
			okN++
			if op.lat <= sloLatency {
				sloOK++
			}
			lats = append(lats, ms(op.lat))
		}
	}
	res.Attempted = len(ph.ops)
	res.Failed = ph.failedCount()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	failMS := ms(ph.elapsed)
	p50, _ := percentileWithFailures(lats, res.Attempted, 50, failMS)
	tail, beyond := percentileWithFailures(lats, res.Attempted, tailPct, failMS)
	attempted := float64(max(res.Attempted, 1))
	res.Metrics["setup_s"] = metric{median(secondsOf(setup)), "s"}
	res.Metrics["ops_per_s"] = metric{throughput(ph), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
	res.Metrics["latency_tail_ms"] = metric{tail, "ms"}
	res.Metrics["ok_frac"] = metric{float64(okN) / attempted, "frac"}
	res.Metrics["slo_ok_frac"] = metric{float64(sloOK) / attempted, "frac"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(ph.cpu) / attempted, "ms"}
	res.Metrics["heap_peak_mb"] = metric{ph.heapPeakMB, "MB"}

	rec := map[string]any{
		"workload":          cfg.Workload,
		"seed":              cfg.Seed,
		"seconds":           cfg.Seconds,
		"trace":             cfg.Trace,
		"timed_s":           ph.elapsed.Seconds(),
		"ops":               res.Attempted,
		"failed":            res.Failed,
		"tail_percentile":   tailPct,
		"tail_beyond":       beyond,
		"setup_samples_s":   secondsOf(setup),
		"host":              describeHost(cfg.Procs, ph.stealFrac),
		"failed_ops":        ph.failures(),
		"accuracy_misses":   ph.misses(),
		"latency_includes":  "request sent until the result is held; output checks run after the clock stops",
		"heap_baseline_mb":  ph.heapBaseMB,
		"slo_latency_ms":    ms(sloLatency),
		"cut_by_time_limit": ph.cut,
	}
	for k, v := range extra {
		rec[k] = v
	}
	writeRecord(cfg.Info, rec)
	return res
}

// writeRecord prints one JSON record line ahead of the result line.
func writeRecord(w io.Writer, rec map[string]any) {
	if w == nil {
		return
	}
	raw, err := json.Marshal(map[string]any{"perfbench_record": rec})
	if err != nil {
		fmt.Fprintf(w, "perfbench: encode record: %v\n", err)
		return
	}
	fmt.Fprintln(w, string(raw))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
