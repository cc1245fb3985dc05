package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs a workload for at most two ops per phase.
func tinyRun(t *testing.T, workload string, trace, plantWrong bool) *result {
	t.Helper()
	res, err := run(context.Background(), runConfig{
		Workload: workload, Seed: 1, Seconds: 120, Trace: trace, Procs: 2,
		WorkDir: t.TempDir(), MaxOps: 2, PlantWrong: plantWrong, Info: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs every workload of BENCHMARK.json
// at a tiny op count, untraced and traced, and checks that the result
// names exactly the declared metrics with their units and that every op's
// output passed its check.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, false)
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestPlantedWrongOutputFails corrupts the expected output of each
// workload's first op: the check must count that op as failed.
func TestPlantedWrongOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for name := range workloads {
		res := tinyRun(t, name, false, true)
		if ok := res.Metrics["ok_frac"].Value; ok >= 1 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted wrong output gave ok_frac=%v correct=%v failed=%d", name, ok, res.Correct, res.Failed)
		}
	}
}

// TestFleetSequence checks the by-hash op sequence: in every round,
// every repeat names a warm clip or one whose cold request came at least
// fleetGap ops earlier in the round, and every clip not warmed at set-up
// is introduced exactly once.
func TestFleetSequence(t *testing.T) {
	for _, n := range []int{5, 40, fleetRoundOps} {
		const rounds = 3
		seq := fleetSequence(3, rounds, n)
		if len(seq) != rounds*n {
			t.Fatalf("n=%d: %d ops", n, len(seq))
		}
		for r := 0; r < rounds; r++ {
			coldAt := map[int]int{}
			for i, op := range seq[r*n : (r+1)*n] {
				if op.cold {
					if _, dup := coldAt[op.clip]; dup || op.clip < fleetWarm {
						t.Fatalf("n=%d round %d: op %d introduces clip %d again or a warm clip", n, r, i, op.clip)
					}
					coldAt[op.clip] = i
					continue
				}
				if op.clip < fleetWarm {
					continue
				}
				if at, ok := coldAt[op.clip]; !ok || i-at < fleetGap {
					t.Fatalf("n=%d round %d: op %d repeats clip %d introduced at %d (ok=%v)", n, r, i, op.clip, at, ok)
				}
			}
			if want := min(n, fleetClips-fleetWarm); len(coldAt) != want {
				t.Errorf("n=%d round %d: %d clips introduced, want %d", n, r, len(coldAt), want)
			}
		}
	}
}

// TestAnalyzeRunsWholePasses checks that analyze_batch's op count is a
// whole number of passes over its pool and that each pass holds every
// pool clip once.
func TestAnalyzeRunsWholePasses(t *testing.T) {
	for _, seconds := range []float64{1, 15, 40} {
		passes := opCount(seconds, analyzeRate/analyzePool, 0)
		order := analyzeOrder(7, analyzePool, passes*analyzePool)
		for p := 0; p < passes; p++ {
			seen := map[int]bool{}
			for _, k := range order[p*analyzePool : (p+1)*analyzePool] {
				seen[k] = true
			}
			if len(seen) != analyzePool {
				t.Errorf("seconds=%v pass %d covers %d of %d clips", seconds, p, len(seen), analyzePool)
			}
		}
	}
}

// TestAccuracyMissCountsAgainstOKFracOnly pins the split between a failed
// op and an accuracy miss: both lower ok_frac and sit past every latency,
// but only the failure makes the run incorrect.
func TestAccuracyMissCountsAgainstOKFracOnly(t *testing.T) {
	ph := &phaseStats{elapsed: time.Second, ops: []opResult{
		{lat: time.Millisecond, ok: true, end: time.Second},
		{lat: time.Millisecond, why: "mean angle error 17.0° > 15°", end: time.Second},
	}}
	res := report(runConfig{Info: io.Discard}, ph, nil, 50, nil)
	if !res.Correct || res.Failed != 0 || res.Metrics["ok_frac"].Value != 0.5 {
		t.Errorf("accuracy miss: correct=%v failed=%d ok_frac=%v, want true 0 0.5",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
	ph.ops[1].fail("served document differs from the reference document")
	res = report(runConfig{Info: io.Discard}, ph, nil, 50, nil)
	if res.Correct || res.Failed != 1 || res.Metrics["ok_frac"].Value != 0.5 {
		t.Errorf("failed op: correct=%v failed=%d ok_frac=%v, want false 1 0.5",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestPercentileCountsFailuresBeyondSuccesses pins the latency rule: a
// failed op sits past every successful one.
func TestPercentileCountsFailuresBeyondSuccesses(t *testing.T) {
	oks := []float64{5, 1, 3, 2, 4}
	if v, beyond := percentileWithFailures(oks, 5, 50, 99); v != 3 || beyond != 2 {
		t.Errorf("p50 of 1..5 = %v (%d beyond), want 3 (2 beyond)", v, beyond)
	}
	if v, _ := percentileWithFailures(oks, 10, 75, 99); v != 99 {
		t.Errorf("p75 with half the ops failed = %v, want the failure value 99", v)
	}
}
