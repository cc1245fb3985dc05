package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/metrics"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/track"
)

// Output tolerances of an analysed clip against its synthetic ground
// truth: the bounds the repository's own tests assert (segmentation and
// core end-to-end tests).
const (
	minFrameIoU     = 0.80
	maxMeanAngleDeg = 15
	maxMeanJointPx  = 5
	maxDistanceErr  = 8
)

// analyze_batch and serve_upload set up setupBefore times ahead of the
// timed phase and setupAfter times after it; setup_s is the median.
const (
	setupBefore = 3
	setupAfter  = 2
)

// analyze_batch's clip pool is clips 0 to analyzePool-1 of the mix drawn
// from analyzeMixSeed: three clips of each stratum, bodies cycling through
// 52–60 px and jumps through 58–68 px, each with its own render seed. The
// pool is not screened: a clip whose analysis misses a ground-truth
// tolerance stays in it and counts against ok_frac.
const (
	analyzeMixSeed = 1
	analyzePool    = 3 * strata
	// analyzeRate is analyze_batch's nominal clips per second on the
	// reference host. A run's op count is seconds×rate rounded to whole
	// passes over the pool, so every run analyses each pool clip equally
	// often and ok_frac is the pool's, whatever the order.
	analyzeRate = 1.0
)

// analyzeOrder is the clip order of one analyze_batch run: seeded
// permutations of the pool, one per pass, so the same seed replays the
// same order.
func analyzeOrder(seed int64, pool, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(pool)...)
	}
	return out[:n]
}

// runAnalyzeBatch drives core.Analyzer.Run from one client over the clip
// pool in the seed's order, Parallelism = GOMAXPROCS, default fit profile.
// Set-up is analyzer construction plus one uncounted warm-up clip.
func runAnalyzeBatch(ctx context.Context, cfg runConfig) (*result, error) {
	acfg := core.DefaultConfig()
	acfg.Parallelism = cfg.Procs
	clips := make([]*clip, analyzePool)
	for k := range clips {
		c, err := makeClip(canonical, analyzeMixSeed, k)
		if err != nil {
			return nil, err
		}
		clips[k] = c
	}
	passes := opCount(cfg.Seconds, analyzeRate/analyzePool, 0)
	ops := passes * analyzePool
	if cfg.MaxOps > 0 {
		ops = min(ops, cfg.MaxOps)
	}
	order := analyzeOrder(cfg.Seed, len(clips), ops)
	// The warm-up clip is the next clip of the mix, outside the pool.
	warm, err := makeClip(canonical, analyzeMixSeed, analyzePool)
	if err != nil {
		return nil, err
	}

	var an *core.Analyzer
	build := func() (func(), error) {
		a, err := core.New(acfg)
		if err != nil {
			return nil, err
		}
		if _, err := a.Run(ctx, core.Request{Frames: warm.video.Frames, ManualFirst: warm.manual}, nil); err != nil {
			return nil, fmt.Errorf("warm-up clip: %w", err)
		}
		an = a
		return func() {}, nil
	}
	var setup setupRuns
	if err := setup.repeat(setupBefore, build); err != nil {
		return nil, err
	}
	measured := an

	// digests[i] is op i's output digest, checked after the clock stops
	// against the Parallelism-1 result of the same clip.
	var mu sync.Mutex
	digests := map[int][32]byte{}
	var tr *tracer
	layers := &analyzeLayers{}
	op := func(ctx context.Context, _, i int) opResult {
		c := clips[order[i]]
		var layered [32]byte
		var layerErr error
		if tr != nil {
			layered, layerErr = layers.layered(ctx, tr, acfg, c, i)
		}
		start := time.Now()
		res, err := measured.Run(ctx, core.Request{Frames: c.video.Frames, ManualFirst: c.manual}, nil)
		lat := time.Since(start)
		out := opResult{lat: lat, label: c.name}
		if err != nil {
			out.fail(err.Error())
			return out
		}
		d := digestResult(res)
		mu.Lock()
		digests[i] = d
		mu.Unlock()
		if tr != nil {
			tr.record("core.run", i, 0, start, start.Add(lat))
			layers.compare(c.name, d, layered, layerErr, res, lat)
		}
		if why := checkTruth(c, res); why != "" {
			out.why = why
			return out
		}
		out.ok = true
		return out
	}

	var ga0, ga1 pose.GAStats
	plain, traced := runPhases(ctx, cfg, phaseSpec{clients: 1, ops: ops, op: op},
		func() { tr, ga0 = newTracer(), pose.GAMetrics() },
		func() { ga1 = pose.GAMetrics() })

	refs, err := sequentialDigests(ctx, acfg, clips, order, plain, traced)
	if err != nil {
		return nil, err
	}
	if cfg.PlantWrong {
		refs[order[0]][0] ^= 0xff
	}
	for _, ph := range []*phaseStats{plain, traced} {
		if ph == nil {
			continue
		}
		markMismatches(ph, func(idx int) (bool, string) {
			mu.Lock()
			d := digests[idx]
			mu.Unlock()
			if d != refs[order[idx]] {
				return false, "output differs from the Parallelism-1 result of the same clip"
			}
			return true, ""
		})
	}
	if err := setup.repeat(setupAfter, build); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return report(cfg, plain, setup.samples, 50, map[string]any{
			"clients":     1,
			"parallelism": acfg.Parallelism,
			"pool_clips":  len(clips),
			"passes":      passes,
		}), nil
	}
	if err := layers.diverged(); err != nil {
		return nil, err
	}
	hits, misses := ga1.FitnessMemoHits-ga0.FitnessMemoHits, ga1.FitnessMemoMisses-ga0.FitnessMemoMisses
	return tracedReport(cfg, tr, plain, traced, setup.samples, layers.metrics(hits, misses))
}

// markMismatches re-checks every op that did not fail during the phase
// with check(op index), which reports ok=false with a reason for an op
// whose output is wrong; such an op fails.
func markMismatches(ph *phaseStats, check func(idx int) (bool, string)) {
	for k := range ph.ops {
		op := &ph.ops[k]
		if op.failed {
			continue
		}
		if ok, why := check(op.index); !ok {
			op.fail(why)
		}
	}
}

// checkTruth applies the ground-truth tolerances to one analysis.
func checkTruth(c *clip, res *core.Result) string {
	v := c.video
	if len(res.Silhouettes) != len(v.Frames) || len(res.Poses) != len(v.Frames) {
		return "per-frame outputs missing"
	}
	for k, s := range res.Silhouettes {
		sc, err := metrics.CompareMasks(s.Mask, v.BodyMasks[k])
		if err != nil {
			return err.Error()
		}
		if sc.IoU < minFrameIoU {
			return fmt.Sprintf("frame %d silhouette IoU %.3f < %.2f", k, sc.IoU, minFrameIoU)
		}
	}
	se, err := metrics.CompareSequences(res.Poses, v.Truth, v.Dims)
	if err != nil {
		return err.Error()
	}
	if se.MeanAngle > maxMeanAngleDeg {
		return fmt.Sprintf("mean angle error %.1f° > %d°", se.MeanAngle, maxMeanAngleDeg)
	}
	if se.MeanJoint > maxMeanJointPx {
		return fmt.Sprintf("mean joint error %.1f px > %d px", se.MeanJoint, maxMeanJointPx)
	}
	if res.Track == nil || math.Abs(res.Track.JumpDistancePx-v.Params.JumpPx) > maxDistanceErr {
		return "jump distance off by more than 8 px"
	}
	return ""
}

// digestResult hashes every deterministic output of an analysis: the
// background, silhouettes, calibrated dimensions, poses, tracking and the
// score report (stage timings excluded).
func digestResult(res *core.Result) [32]byte {
	h := sha256.New()
	if res.Background != nil {
		for _, p := range res.Background.Pix {
			h.Write([]byte{p.R, p.G, p.B})
		}
	}
	for _, s := range res.Silhouettes {
		fmt.Fprintf(h, "sil %d %d %v|", s.Frame, s.Area, s.BBox)
		packBits(h, s.Mask.Bits)
	}
	fmt.Fprintf(h, "dims %v|", res.Dimensions)
	for _, p := range res.Poses {
		writePose(h, p)
	}
	if t := res.Track; t != nil {
		fmt.Fprintf(h, "track %v %d %d %v %v %v %v %v %v|", t.Phases, t.TakeoffFrame, t.LandingFrame,
			t.Initiation, t.AirLanding, t.JumpDistancePx, t.JumpDistanceM, t.ApexRisePx, t.AnkleTrajectory)
	}
	if r := res.Report; r != nil {
		fmt.Fprintf(h, "report %d %d %v %q|", r.Passed, r.Total, r.Score, r.Advice)
		for _, rr := range r.Results {
			fmt.Fprintf(h, "%s %v %v %v %d|", rr.Rule.ID, rr.Window, rr.Value, rr.Passed, rr.AtFrame)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func writePose(h hash.Hash, p stickmodel.Pose) {
	fmt.Fprintf(h, "pose %v %v %v|", p.X, p.Y, p.Rho)
}

func packBits(h hash.Hash, bits []bool) {
	var b byte
	for i, v := range bits {
		if v {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			h.Write([]byte{b})
			b = 0
		}
	}
	h.Write([]byte{b})
}

// sequentialDigests computes the Parallelism-1 reference digest of every
// clip the phases ran, two clips at a time, after the clock has stopped.
func sequentialDigests(ctx context.Context, acfg core.Config, clips []*clip, order []int, phases ...*phaseStats) ([][32]byte, error) {
	used := map[int]bool{}
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		for _, op := range ph.ops {
			used[order[op.index]] = true
		}
	}
	seq := acfg
	seq.Parallelism = 1
	an, err := core.New(seq)
	if err != nil {
		return nil, err
	}
	refs := make([][32]byte, len(clips))
	errs := make([]error, len(clips))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k := range clips {
		if !used[k] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := an.Run(ctx, core.Request{Frames: clips[k].video.Frames, ManualFirst: clips[k].manual}, nil)
			if err != nil {
				errs[k] = fmt.Errorf("reference run of %s: %w", clips[k].name, err)
				return
			}
			refs[k] = digestResult(res)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// analyzeLayers accumulates the traced run's per-clip layer counters.
type analyzeLayers struct {
	mu           sync.Mutex
	evaluations  []float64
	generations  []float64
	fitCPUPerSec []float64
	unattributed []float64
	// divergent names the clips on which the layer-by-layer path did not
	// reproduce core.Analyzer.Run's output.
	divergent []string
}

// layered runs the pipeline of core.Analyzer.Run one layer at a time
// through the layers' public functions, with a span around each call:
// segmentation (background once, then every frame, fanned out like the
// analyzer does), calibration, the sequence fit, tracking and scoring. It
// returns the digest of what it computed, which must equal the digest of
// the timed Run on the same clip: a change to core's wiring that this copy
// does not follow fails the traced run instead of skewing its spans.
func (l *analyzeLayers) layered(ctx context.Context, tr *tracer, acfg core.Config, c *clip, op int) ([32]byte, error) {
	frames := c.video.Frames
	root, endRoot := tr.begin("op", op, 0)
	defer endRoot()
	seg, err := segmentation.New(acfg.Segmentation)
	if err != nil {
		return [32]byte{}, err
	}
	segID, endSeg := tr.begin("segmentation", op, root)
	_, end := tr.begin("segmentation.background", op, segID)
	bg, err := seg.EstimateBackground(frames)
	end()
	if err != nil {
		endSeg()
		return [32]byte{}, err
	}
	sils := make([]segmentation.Silhouette, len(frames))
	errs := make([]error, len(frames))
	workers := max(acfg.Parallelism, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(frames); k += workers {
				_, end := tr.begin("segmentation.frame", op, segID)
				st, err := seg.SegmentFrame(frames[k], bg)
				end()
				if errs[k] = err; err == nil {
					sils[k] = segmentation.NewSilhouette(k, st.Object)
				}
			}
		}(w)
	}
	wg.Wait()
	endSeg()
	for _, err := range errs {
		if err != nil {
			return [32]byte{}, err
		}
	}

	h := acfg.BodyHeightPrior
	if h <= 0 {
		h = float64(sils[0].BBox.H())
	}
	poseCfg := acfg.Pose
	if poseCfg.Parallelism == 0 {
		poseCfg.Parallelism = acfg.Parallelism
	}
	est, err := pose.NewEstimator(stickmodel.ChildDimensions(h), poseCfg)
	if err != nil {
		return [32]byte{}, err
	}
	_, end = tr.begin("pose.calibrate", op, root)
	dims, err := est.Calibrate(sils[0], c.manual)
	end()
	if err != nil {
		return [32]byte{}, err
	}
	cpu0, wall0 := cpuTime(), time.Now()
	_, end = tr.begin("pose.fit", op, root)
	ests, err := est.EstimateSequenceContext(ctx, sils, c.manual)
	end()
	cpu, wall := cpuTime()-cpu0, time.Since(wall0)
	if err != nil {
		return [32]byte{}, err
	}
	poses := make([]stickmodel.Pose, len(ests))
	evals, gens := 0, 0
	for k, e := range ests {
		poses[k] = e.Pose
		if e.GA != nil {
			evals += e.GA.Evaluations
			gens += e.GA.Generations
		}
	}
	_, end = tr.begin("track.analyze", op, root)
	analysis, err := track.NewTracker(dims, acfg.PxPerMeter).Analyze(poses)
	end()
	if err != nil {
		return [32]byte{}, err
	}
	initW, airW := track.FixedWindows(len(poses))
	if acfg.Windows == core.WindowsDetected {
		initW, airW = analysis.Initiation, analysis.AirLanding
	}
	_, end = tr.begin("scoring.score", op, root)
	report, err := scoring.NewScorer().Score(poses, initW, airW)
	end()
	if err != nil {
		return [32]byte{}, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.evaluations = append(l.evaluations, float64(evals))
	l.generations = append(l.generations, float64(gens))
	l.fitCPUPerSec = append(l.fitCPUPerSec, cpu.Seconds()/wall.Seconds())
	return digestResult(&core.Result{Background: bg, Silhouettes: sils, Dimensions: dims,
		Poses: poses, Track: analysis, Report: report}), nil
}

// compare checks the layer-by-layer digest against the timed Run's, and
// takes core's unattributed share from the Run itself: the part of its
// wall time that none of its stage timers (Result.StageMS) covers.
func (l *analyzeLayers) compare(name string, run, layered [32]byte, layerErr error, res *core.Result, lat time.Duration) {
	staged := 0.0
	for _, v := range res.StageMS {
		staged += v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unattributed = append(l.unattributed, 1-staged/ms(lat))
	switch {
	case layerErr != nil:
		l.divergent = append(l.divergent, name+": "+layerErr.Error())
	case run != layered:
		l.divergent = append(l.divergent, name)
	}
}

// diverged reports the clips whose layer-by-layer output differed from
// core.Analyzer.Run's.
func (l *analyzeLayers) diverged() error {
	if len(l.divergent) == 0 {
		return nil
	}
	return fmt.Errorf("the layer-by-layer path no longer reproduces core.Analyzer.Run (%d clips, e.g. %s)",
		len(l.divergent), l.divergent[0])
}

// metrics derives the analysis layers' per-layer metrics; memo hits and
// misses are the process-wide GA counter deltas over the traced phase.
func (l *analyzeLayers) metrics(hits, misses uint64) map[string]float64 {
	out := map[string]float64{
		"ga.evaluations":         mean(l.evaluations),
		"ga.generations":         mean(l.generations),
		"pose.fit_cpu_per_wall":  mean(l.fitCPUPerSec),
		"core.unattributed_frac": median(l.unattributed),
	}
	if hits+misses > 0 {
		out["ga.memo_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	return out
}
