package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/server"
)

const (
	// serveBases is the number of base clips of serve_upload; op i sends
	// base i%serveBases as variant i/serveBases+1, so no two ops share a
	// clip and every op misses the result cache.
	serveBases = 16
	// serveHistoryJobs is the seeded history the set-up restarts over.
	serveHistoryJobs = 24
	// historyVariants offsets the history's variant numbers past any the
	// timed phase reaches.
	historyVariants = 1 << 20
	// serveRate is serve_upload's nominal jobs per second on the reference
	// host: a run sends seconds×rate jobs. The op count is fixed rather
	// than the clock, because the journal's work depends on what it holds:
	// with the deployment's 15 minute result TTL every job of the run stays
	// live, the active segment seals at 64 MiB and each later compaction
	// rewrites every live record. A fixed count puts those rewrites at the
	// same ops in every run.
	serveRate = 5.0
)

// serveOptions is the deployment default (slj-serve without flags) plus
// the journal.
func serveOptions(j jobs.Journal) server.Options {
	o := server.DefaultOptions()
	o.Journal = j
	return o
}

// runServeUpload measures the write path: multipart upload, SHA-256
// keying, queueing, journal appends, segmentation and SSE delivery, on one
// journaled in-process server over loopback.
func runServeUpload(ctx context.Context, cfg runConfig) (*result, error) {
	acfg := core.DefaultConfig()
	uploads := make([]*upload, serveBases)
	for k := range uploads {
		c, err := makeClip(canonical, cfg.Seed, k)
		if err != nil {
			return nil, err
		}
		if uploads[k], err = encodeUpload(c); err != nil {
			return nil, err
		}
	}
	cl := newClient(cfg.Procs)
	defer cl.CloseIdleConnections()

	histDir := filepath.Join(cfg.WorkDir, "history")
	if err := seedHistory(ctx, cfg, acfg, cl, uploads, histDir); err != nil {
		return nil, fmt.Errorf("seed journal history: %w", err)
	}

	// restart is one set-up: a fresh copy of the history (not timed), then
	// the timed restart over it.
	var (
		st       *servedStack
		tj       *timedJournal
		setup    setupRuns
		replay   []float64
		restarts int
	)
	restart := func() (func(), error) {
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("restart%d", restarts))
		restarts++
		if err := copyDir(histDir, dir); err != nil {
			return nil, err
		}
		teardown, err := setup.once(func() (func(), error) {
			s, t, err := startServed(ctx, acfg, cl, dir, cfg.Trace)
			if err != nil {
				return nil, fmt.Errorf("restart over the history: %w", err)
			}
			st, tj = s, t
			return func() { s.close(); _ = os.RemoveAll(dir) }, nil
		})
		if err == nil && tj != nil {
			replay = append(replay, tj.replay.Seconds())
		}
		return teardown, err
	}
	for r := 0; r < setupBefore-1; r++ {
		teardown, err := restart()
		if err != nil {
			return nil, err
		}
		teardown()
	}
	teardown, err := restart()
	if err != nil {
		return nil, err
	}
	measured, measuredJournal := st, tj
	closed := false
	defer func() {
		if !closed {
			teardown()
		}
	}()

	var mu sync.Mutex
	digests := map[int][32]byte{}
	var tr *tracer
	var queueWait, runMS []float64
	op := func(ctx context.Context, _, i int) opResult {
		base, v := i%serveBases, i/serveBases+1
		body := uploads[base].variant(v)
		out := opResult{label: fmt.Sprintf("base%d/variant%d", base, v)}
		start := time.Now()
		sub, err := post(ctx, cl, measured.url+"/v1/jobs", uploads[base].ctype, body)
		submittedAt := time.Now()
		raw, ev, at, why := finishJob(ctx, cl, measured.url, sub, err)
		out.lat = time.Since(start)
		if why != "" {
			out.fail(why)
			return out
		}
		d, err := docDigest(raw)
		if err != nil {
			out.fail(err.Error())
			return out
		}
		mu.Lock()
		digests[i] = d
		mu.Unlock()
		out.ok = true
		if tr != nil {
			root := tr.record("op", i, 0, start, start.Add(out.lat))
			tr.record("server.submit", i, root, start, submittedAt)
			if sub.id != "" {
				tr.record("events.deliver", i, root, ev.At, at)
				var status jobs.Status
				if err := getJSON(ctx, cl, measured.url+"/v1/jobs/"+sub.id, &status); err == nil {
					mu.Lock()
					queueWait = append(queueWait, status.QueueWaitMS)
					runMS = append(runMS, status.RunMS)
					mu.Unlock()
				}
			}
		}
		return out
	}

	spec := phaseSpec{clients: cfg.Procs, ops: opCount(cfg.Seconds, serveRate, cfg.MaxOps), op: op}
	var cache0, cache1 cache.Metrics
	plain, traced := runPhases(ctx, cfg, spec,
		func() {
			tr = newTracer()
			cache0 = measured.cacheMetrics(ctx, cl)
			measuredJournal.reset()
		},
		func() { cache1 = measured.cacheMetrics(ctx, cl) })

	// Reference documents: the synchronous route of a cache-less server,
	// in-process, on the very bytes each op uploaded.
	ref, err := server.NewWithOptions(acfg, nil, func() server.Options {
		o := server.DefaultOptions()
		o.CacheEntries = 0
		return o
	}())
	if err != nil {
		return nil, err
	}
	defer ref.Close(ctx)
	check := func(i int) ([32]byte, error) {
		base, v := i%serveBases, i/serveBases+1
		return referenceDoc(ref.Handler(), "/v1/analyze", uploads[base].ctype, uploads[base].variant(v))
	}
	if err := verifyDocs(cfg, digests, &mu, check, plain, traced); err != nil {
		return nil, err
	}
	journalDir, journalBytes, journalStats := measured.dir, dirBytes(measured.dir), measured.jrn.Stats()
	journalFS := fsType(journalDir)
	teardown()
	closed = true
	for r := 0; r < setupAfter; r++ {
		teardown, err := restart()
		if err != nil {
			return nil, err
		}
		teardown()
	}

	if !cfg.Trace {
		return report(cfg, plain, setup.samples, 75, map[string]any{
			"clients":          cfg.Procs,
			"history_jobs":     serveHistoryJobs,
			"journal_dir":      journalDir,
			"journal_fs":       journalFS,
			"journal_bytes":    journalBytes,
			"result_ttl_s":     serveOptions(nil).ResultTTL.Seconds(),
			"journal_stats":    journalStats,
			"analyzer_workers": serveOptions(nil).Workers,
		}), nil
	}
	layers := map[string]float64{
		"jobs.queue_wait_ms": mean(queueWait),
		"jobs.run_ms":        mean(runMS),
		"journal.replay_s":   median(replay),
		"cache.hit_frac":     hitFrac(cache0, cache1),
	}
	measuredJournal.fill(layers)
	clipOf := func(i int) int { return i % serveBases }
	if err := segmentationLayers(ctx, tr, acfg, canonical, cfg.Seed, traced, clipOf); err != nil {
		return nil, err
	}
	return tracedReport(cfg, tr, plain, traced, setup.samples, layers)
}

// finishJob turns a submission into the result document: a 200 carries it,
// a 202 is followed on the job's event stream to its terminal frame.
func finishJob(ctx context.Context, cl *http.Client, base string, sub submitted, err error) (raw []byte, ev events.Event, at time.Time, why string) {
	switch {
	case err != nil:
		return nil, ev, at, err.Error()
	case sub.code == http.StatusServiceUnavailable:
		return nil, ev, at, "refused (503)"
	case sub.code == http.StatusOK:
		return sub.raw, ev, time.Now(), ""
	case sub.code != http.StatusAccepted:
		return nil, ev, at, fmt.Sprintf("submit answered %d: %.200s", sub.code, sub.raw)
	}
	ev, at, err = awaitTerminal(ctx, cl, base, sub.id)
	if err != nil {
		return nil, ev, at, err.Error()
	}
	if ev.Type != events.TypeDone || len(ev.Result) == 0 {
		return nil, ev, at, fmt.Sprintf("job ended %s: %s", ev.Type, ev.Error)
	}
	return ev.Result, ev, at, ""
}

// verifyDocs compares every successful op's document digest with its
// reference, computed two at a time after the clock has stopped.
func verifyDocs(cfg runConfig, digests map[int][32]byte, mu *sync.Mutex, ref func(i int) ([32]byte, error), phases ...*phaseStats) error {
	var idx []int
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		for _, op := range ph.ops {
			if op.ok {
				idx = append(idx, op.index)
			}
		}
	}
	refs := make(map[int][32]byte, len(idx))
	var refMu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			d, err := ref(i)
			refMu.Lock()
			defer refMu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			refs[i] = d
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if cfg.PlantWrong {
		d := refs[0]
		d[0] ^= 0xff
		refs[0] = d
	}
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		markMismatches(ph, func(i int) (bool, string) {
			mu.Lock()
			d := digests[i]
			mu.Unlock()
			if d != refs[i] {
				return false, "served document differs from the reference document"
			}
			return true, ""
		})
	}
	return nil
}

// seedHistory runs serveHistoryJobs distinct jobs through a journaled
// server and shuts it down cleanly, leaving their journal in dir.
func seedHistory(ctx context.Context, cfg runConfig, acfg core.Config, cl *http.Client, uploads []*upload, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, _, err := startServed(ctx, acfg, cl, dir, false)
	if err != nil {
		return err
	}
	defer st.close()
	errs := make(chan error, cfg.Procs)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < serveHistoryJobs; j += cfg.Procs {
				u := uploads[j%serveBases]
				sub, err := post(ctx, cl, st.url+"/v1/jobs", u.ctype, u.variant(historyVariants+j))
				if _, _, _, why := finishJob(ctx, cl, st.url, sub, err); why != "" {
					errs <- fmt.Errorf("history job %d: %s", j, why)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// servedStack is one journaled server on a loopback port.
type servedStack struct {
	url string
	dir string
	l   *listener
	srv *server.Server
	jrn *journal.Journal
}

// startServed opens the journal in dir, constructs the server over it
// (which replays the journal) and waits until it answers; traced wraps
// the journal in the timing wrapper.
func startServed(ctx context.Context, acfg core.Config, cl *http.Client, dir string, traced bool) (*servedStack, *timedJournal, error) {
	jrn, err := journal.Open(filepath.Join(dir, "jobs.journal"), journal.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	var j jobs.Journal = jrn
	var tj *timedJournal
	if traced {
		tj = &timedJournal{inner: jrn}
		j = tj
	}
	srv, err := server.NewWithOptions(acfg, nil, serveOptions(j))
	if err != nil {
		jrn.Close()
		return nil, nil, err
	}
	l, err := listen()
	if err != nil {
		srv.Close(ctx)
		jrn.Close()
		return nil, nil, err
	}
	l.serve(srv.Handler())
	st := &servedStack{url: l.url, dir: dir, l: l, srv: srv, jrn: jrn}
	var health map[string]any
	if err := getJSON(ctx, cl, l.url+"/v1/healthz", &health); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, tj, nil
}

func (s *servedStack) close() {
	s.l.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Close(ctx)
	_ = s.jrn.Close()
}

// cacheMetrics reads the result cache counters from /v1/metrics.
func (s *servedStack) cacheMetrics(ctx context.Context, cl *http.Client) cache.Metrics {
	var doc struct {
		Cache cache.Metrics `json:"cache"`
	}
	_ = getJSON(ctx, cl, s.url+"/v1/metrics", &doc)
	return doc.Cache
}

func hitFrac(a, b cache.Metrics) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// timedJournal wraps the jobs.Journal the server writes through, timing
// every append and the replay.
type timedJournal struct {
	inner jobs.Journal

	mu      sync.Mutex
	appends int
	bytes   int64
	total   time.Duration
	max     time.Duration
	replay  time.Duration
}

func (j *timedJournal) Append(e jobs.JournalEntry) error {
	start := time.Now()
	err := j.inner.Append(e)
	d := time.Since(start)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appends++
	j.bytes += int64(len(e.Payload) + len(e.Result) + len(e.Error))
	j.total += d
	j.max = max(j.max, d)
	return err
}

func (j *timedJournal) Replay(fn func(e jobs.JournalEntry) error) error {
	start := time.Now()
	err := j.inner.Replay(fn)
	j.mu.Lock()
	j.replay += time.Since(start)
	j.mu.Unlock()
	return err
}

func (j *timedJournal) Sync() error { return j.inner.Sync() }

// reset zeroes the append counters at the start of the traced phase.
func (j *timedJournal) reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appends, j.bytes, j.total, j.max = 0, 0, 0, 0
}

// fill writes the journal's per-layer metrics: mean and largest append
// time, the number of appends, and the payload and result bytes they
// carried.
func (j *timedJournal) fill(m map[string]float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.appends > 0 {
		m["journal.append_ms"] = ms(j.total) / float64(j.appends)
	}
	m["journal.append_max_ms"] = ms(j.max)
	m["journal.appends"] = float64(j.appends)
	m["journal.bytes"] = float64(j.bytes)
}

// segmentationLayers times segmentation from outside on the clip of every
// traced op (once per clip, clipOf maps an op to its clip of geometry g):
// background estimation per clip, then each frame. The served workloads
// run segmentation inside the server, where the benchmark cannot put a
// span.
func segmentationLayers(ctx context.Context, tr *tracer, acfg core.Config, g geometry, seed int64, ph *phaseStats, clipOf func(int) int) error {
	seg, err := segmentation.New(acfg.Segmentation)
	if err != nil {
		return err
	}
	done := map[int]bool{}
	for _, op := range ph.ops {
		k := clipOf(op.index)
		if done[k] || ctx.Err() != nil {
			continue
		}
		done[k] = true
		c, err := makeClip(g, seed, k)
		if err != nil {
			return err
		}
		_, end := tr.begin("segmentation.background", op.index, 0)
		bg, err := seg.EstimateBackground(c.video.Frames)
		end()
		if err != nil {
			return err
		}
		for _, f := range c.video.Frames {
			_, end := tr.begin("segmentation.frame", op.index, 0)
			_, err := seg.SegmentFrame(f, bg)
			end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// fsType names the filesystem holding dir, so a run records whether its
// journal fsyncs reached a disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
