package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/sljmotion/sljmotion/internal/server"
)

// sloLatency is the served workloads' latency objective.
const sloLatency = server.DefaultSLOLatency

// opResult is one closed-loop operation of a timed phase.
type opResult struct {
	index  int // position in the workload's op sequence
	client int
	lat    time.Duration
	end    time.Duration // when the op finished, from the start of the phase
	// ok is a verified success. failed marks an op the program got wrong:
	// an error, a refusal, or an output that differs from the reference.
	// An analysis that matches its reference but misses a ground-truth
	// tolerance is neither: it counts against ok_frac without failing.
	ok     bool
	failed bool
	// label names the op's input (clip and variant) so a failure can be
	// reported by name; why says what the check found.
	label string
	why   string
}

// fail marks the op failed for the reason why.
func (r *opResult) fail(why string) {
	r.ok, r.failed, r.why = false, true, why
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	ops        []opResult
	elapsed    time.Duration
	cpu        time.Duration
	stealFrac  float64
	heapBaseMB float64
	heapPeakMB float64
	// cut is true when the time limit ended the phase before its op count.
	cut bool
}

// failures names every failed op (at most 20) for the run record.
func (ph *phaseStats) failures() []string {
	return ph.named(func(op opResult) bool { return op.failed })
}

// misses names every op that ran correctly but missed a ground-truth
// tolerance (at most 20).
func (ph *phaseStats) misses() []string {
	return ph.named(func(op opResult) bool { return !op.ok && !op.failed })
}

// failedCount is the number of failed ops.
func (ph *phaseStats) failedCount() int {
	n := 0
	for _, op := range ph.ops {
		if op.failed {
			n++
		}
	}
	return n
}

func (ph *phaseStats) named(pick func(opResult) bool) []string {
	out := []string{}
	for _, op := range ph.ops {
		if pick(op) && len(out) < 20 {
			out = append(out, op.label+": "+op.why)
		}
	}
	return out
}

// phaseSpec describes one timed phase: clients closed-loop clients share a
// sequence counter, starting at first, and each calls op with the next
// index until ops ops were started. The op count is fixed, so every run of
// a workload does the same work whatever the host's speed; limit only
// guards against a system so slow that the run would not end. A traced
// phase starts where the untraced one stopped, so it never repeats an
// input the system has already seen.
type phaseSpec struct {
	clients int
	first   int
	ops     int
	limit   time.Duration
	op      func(ctx context.Context, client, i int) opResult
}

// phaseLimit is the time after which a phase stops short of its op count:
// several times the run's nominal length.
func phaseLimit(seconds float64) time.Duration {
	return time.Duration(5 * seconds * float64(time.Second))
}

// opCount is a workload's op count for a run of the given length: the
// ops its nominal rate (ops per second on the reference host) fits in
// that time, at least one, capped by maxOps when positive.
func opCount(seconds, rate float64, maxOps int) int {
	n := max(int(math.Round(seconds*rate)), 1)
	if maxOps > 0 {
		n = min(n, maxOps)
	}
	return n
}

// runPhase runs one timed phase. Heap is measured above the level left
// after set-up (a forced collection first, so garbage from set-up does not
// count), sampled every few milliseconds from runtime/metrics, which does
// not stop the world.
func runPhase(ctx context.Context, spec phaseSpec) *phaseStats {
	runtime.GC()
	base := heapBytes()
	ph := &phaseStats{heapBaseMB: float64(base) / (1 << 20)}

	var peak atomic.Uint64
	peak.Store(base)
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if h := heapBytes(); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	steal0, total0 := readStealTicks()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(spec.limit)
	var next atomic.Int64
	next.Store(int64(spec.first))
	var cut atomic.Bool
	results := make([][]opResult, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !time.Now().Before(deadline) {
					cut.Store(true)
					return
				}
				i := int(next.Add(1) - 1)
				if i-spec.first >= spec.ops {
					return
				}
				r := spec.op(ctx, c, i)
				r.index, r.client, r.end = i, c, time.Since(start)
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	steal1, total1 := readStealTicks()
	close(stopSampler)
	samplerDone.Wait()
	if h := heapBytes(); h > peak.Load() {
		peak.Store(h)
	}
	ph.heapPeakMB = float64(peak.Load()-base) / (1 << 20)
	if total1 > total0 {
		ph.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	ph.cut = cut.Load()
	for _, rs := range results {
		ph.ops = append(ph.ops, rs...)
	}
	return ph
}

// runPhases runs a workload's timed phase, or with cfg.Trace its two
// halves: the first half of the ops untraced, then startTrace, the second
// half traced, and endTrace.
func runPhases(ctx context.Context, cfg runConfig, spec phaseSpec, startTrace, endTrace func()) (plain, traced *phaseStats) {
	spec.limit = phaseLimit(cfg.Seconds)
	if !cfg.Trace {
		return runPhase(ctx, spec), nil
	}
	total := spec.ops
	spec.ops = (total + 1) / 2
	spec.limit = phaseLimit(cfg.Seconds / 2)
	plain = runPhase(ctx, spec)
	spec.first = nextIndex(plain)
	spec.ops = max(total-spec.ops, 1)
	startTrace()
	traced = runPhase(ctx, spec)
	endTrace()
	return plain, traced
}

// mergePhases joins consecutive phases into one: ops keep their order,
// with end times offset by the phases before them; time and CPU add up,
// the steal share is time-weighted, and the heap peak is the highest.
func mergePhases(phs []*phaseStats) *phaseStats {
	out := &phaseStats{}
	steal := 0.0
	for _, ph := range phs {
		for _, op := range ph.ops {
			op.end += out.elapsed
			out.ops = append(out.ops, op)
		}
		steal += ph.stealFrac * ph.elapsed.Seconds()
		out.elapsed += ph.elapsed
		out.cpu += ph.cpu
		out.heapBaseMB = max(out.heapBaseMB, ph.heapBaseMB)
		out.heapPeakMB = max(out.heapPeakMB, ph.heapPeakMB)
		out.cut = out.cut || ph.cut
	}
	if out.elapsed > 0 {
		out.stealFrac = steal / out.elapsed.Seconds()
	}
	return out
}

// setupRuns collects a workload's set-up times. Repetitions run both
// before the timed phase (the last of those keeps its system up for the
// phase) and after it, so the median samples the host across the whole
// run rather than the few seconds before the phase.
type setupRuns struct {
	samples []time.Duration
}

// once times build, after a forced collection so garbage from earlier
// work does not land in it. build returns the system's teardown, which
// runs untimed when the caller is done with the system.
func (s *setupRuns) once(build func() (teardown func(), err error)) (func(), error) {
	runtime.GC()
	start := time.Now()
	teardown, err := build()
	if err != nil {
		return nil, err
	}
	s.samples = append(s.samples, time.Since(start))
	return teardown, nil
}

// repeat runs n set-ups and tears each down at once.
func (s *setupRuns) repeat(n int, build func() (func(), error)) error {
	for r := 0; r < n; r++ {
		teardown, err := s.once(build)
		if err != nil {
			return err
		}
		teardown()
	}
	return nil
}

// nextIndex is the op index after the last one a phase ran.
func nextIndex(ph *phaseStats) int {
	n := 0
	for _, op := range ph.ops {
		n = max(n, op.index+1)
	}
	return n
}

// heapSample reads the bytes of live and not-yet-swept heap objects.
var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
var heapMu sync.Mutex

func heapBytes() uint64 {
	heapMu.Lock()
	defer heapMu.Unlock()
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readStealTicks returns the host's steal and total CPU ticks from the
// aggregate line of /proc/stat (zeros where it is unreadable).
func readStealTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, fv := range fields[1:] {
			n, err := strconv.ParseUint(fv, 10, 64)
			if err != nil {
				continue
			}
			// user nice system idle iowait irq softirq steal [guest...];
			// guest time is already counted in user.
			if i < 8 {
				total += n
			}
			if i == 7 {
				steal = n
			}
		}
		return steal, total
	}
	return 0, 0
}

// hostProcs is the processor count the benchmark runs with: the CPUs this
// process may use, capped by a cgroup v2 CPU quota. Go before 1.25 ignores
// the quota, so the benchmark sets GOMAXPROCS itself.
func hostProcs() int {
	n := runtime.NumCPU()
	raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return n
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 2 || fields[0] == "max" {
		return n
	}
	quota, err1 := strconv.ParseFloat(fields[0], 64)
	period, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil || period <= 0 {
		return n
	}
	if q := int(math.Ceil(quota / period)); q >= 1 && q < n {
		return q
	}
	return n
}

// describeHost is the host record printed with every run.
func describeHost(procs int, stealFrac float64) map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"procs_used": procs,
		"go_version": runtime.Version(),
		"steal_frac": stealFrac,
	}
}

// percentileWithFailures is the nearest-rank p-th percentile of okLats
// (milliseconds) among attempted ops, where each failed op counts as a
// latency beyond every success; a percentile that lands on a failure
// reads failMS. beyond is the number of samples past the percentile.
func percentileWithFailures(okLats []float64, attempted int, p, failMS float64) (value float64, beyond int) {
	if attempted == 0 {
		return failMS, 0
	}
	s := append([]float64(nil), okLats...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(attempted))) - 1
	idx = max(idx, 0)
	if idx >= len(s) {
		return failMS, attempted - 1 - idx
	}
	return s[idx], attempted - 1 - idx
}

// throughput is verified ops per second: each client's verified ops over
// the time from the start of the phase to the end of its last op, summed
// over clients. A client that finishes a long op after the deadline is
// charged the time it took, and the clients that stopped on time are not.
func throughput(ph *phaseStats) float64 {
	okN := map[int]int{}
	last := map[int]time.Duration{}
	for _, op := range ph.ops {
		if op.ok {
			okN[op.client]++
		}
		last[op.client] = max(last[op.client], op.end)
	}
	sum := 0.0
	for c, n := range okN {
		if last[c] > 0 {
			sum += float64(n) / last[c].Seconds()
		}
	}
	return sum
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
