package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/server"
)

// fleetGeometry keeps fleet_byhash's clips small: 20 frames of 96×72, a
// 0.4 MB frames blob per clip, so a hit's cost is the serving path rather
// than the pixels, while a cold request still segments 20 frames.
var fleetGeometry = geometry{
	W: 96, H: 72, Frames: 20, FloorY: 62, StartX: 22, ApexRise: 8,
	Heights: []float64{26, 27, 28},
	Jumps:   []float64{30, 32, 34},
}

const (
	// fleetClips is the number of distinct clips uploaded at set-up. Each
	// worker's result cache (64 entries by default) holds its own results
	// and its ring successor's replicas, so every clip of the run fits in
	// every cache and a repeat is always a hit.
	fleetClips = 60
	// fleetWarm clips are requested once, cold, during set-up; the other
	// fleetClips-fleetWarm are introduced cold during the timed phase, at
	// evenly spaced ops.
	fleetWarm = 40
	// A repeat names a warm clip or one introduced at least fleetGap ops
	// earlier, so its cold request has finished.
	fleetGap = 32
	// The timed phase is a number of rounds, each on a freshly set-up
	// fleet, of fleetRoundOps requests. The front end keeps every job for
	// the deployment's 15 minute result TTL (about 100 KB each), so one
	// long-lived fleet's heap would grow with the op count; a fixed count
	// per round keeps heap_peak_mb a property of the program, and rounds
	// let the run measure for --seconds without the heap growing. A round
	// introduces fleetClips-fleetWarm clips cold, 2% of its ops, so the
	// p99 lands among the misses and the p50 among the hits.
	fleetRoundOps = 1000
	// fleetRate is fleet_byhash's nominal requests per second on the
	// reference host: a run makes round(seconds×rate/fleetRoundOps)
	// rounds, at least one.
	fleetRate = 530.0
	// fleetNodes is the number of worker nodes behind the front end.
	fleetNodes = 2
	// Besides one set-up per round, the run sets up fleetSetupExtra times
	// before the rounds and as many after them, so setup_s, the median,
	// samples the host across the run.
	fleetSetupExtra = 2
)

// fleetOp is one entry of the by-hash op sequence.
type fleetOp struct {
	clip int
	cold bool
}

// fleetSequence lays out rounds rounds of n ops each. In each round new
// clip j (clip fleetWarm+j) is introduced cold at op j×stride, where
// stride spreads the new clips evenly over the round, and every other op
// repeats a seeded-random clip that is warm or was introduced at least
// fleetGap ops earlier in the round.
func fleetSequence(seed int64, rounds, n int) []fleetOp {
	rng := rand.New(rand.NewSource(seed))
	stride := max(n/(fleetClips-fleetWarm), 1)
	seq := make([]fleetOp, 0, rounds*n)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if j := i / stride; i%stride == 0 && fleetWarm+j < fleetClips {
				seq = append(seq, fleetOp{clip: fleetWarm + j, cold: true})
				continue
			}
			// Clips introduced at ops ≤ i-fleetGap are eligible.
			introduced := 0
			if i >= fleetGap {
				introduced = min((i-fleetGap)/stride+1, fleetClips-fleetWarm)
			}
			seq = append(seq, fleetOp{clip: rng.Intn(fleetWarm + introduced)})
		}
	}
	return seq
}

// fleetClip is one uploaded clip: its frames blob and by-hash request.
type fleetClip struct {
	name string
	blob []byte
	hash string
	body []byte // POST /v1/jobs JSON naming the frames by hash
}

// byHashRequest is the JSON body of a by-hash analysis request.
type byHashRequest struct {
	FramesRef   string `json:"frames_ref"`
	ManualFirst struct {
		X   float64   `json:"x"`
		Y   float64   `json:"y"`
		Rho []float64 `json:"rho"`
	} `json:"manual_first"`
	Stages      string `json:"stages"`
	Silhouettes bool   `json:"silhouettes"`
}

// runFleetByHash measures the read path: a dispatch front end with
// replication over two worker nodes, no journal. Set-up builds the fleet
// and uploads every clip once; the timed phase sends by-hash requests.
func runFleetByHash(ctx context.Context, cfg runConfig) (*result, error) {
	acfg := core.DefaultConfig()
	clips := make([]*fleetClip, fleetClips)
	for k := range clips {
		c, err := makeClip(fleetGeometry, cfg.Seed, k)
		if err != nil {
			return nil, err
		}
		blob, err := artifacts.EncodeFrames(c.video.Frames)
		if err != nil {
			return nil, err
		}
		req := byHashRequest{FramesRef: artifacts.HashOf(blob), Stages: "segmentation", Silhouettes: true}
		req.ManualFirst.X, req.ManualFirst.Y = c.manual.X, c.manual.Y
		req.ManualFirst.Rho = c.manual.Rho[:]
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		clips[k] = &fleetClip{name: c.name, blob: blob, hash: req.FramesRef, body: body}
	}
	// A traced run, or a smoke run capped by MaxOps, is one round.
	rounds, n := opCount(cfg.Seconds, fleetRate/fleetRoundOps, 0), fleetRoundOps
	if cfg.Trace || cfg.MaxOps > 0 {
		rounds, n = 1, opCount(fleetRoundOps, 1, cfg.MaxOps)
	}
	seq := fleetSequence(cfg.Seed, rounds, n)
	cl := newClient(cfg.Procs)
	defer cl.CloseIdleConnections()

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	// fl is the fleet the current round runs on.
	var (
		setup setupRuns
		fl    *fleet
	)
	// setUp is one set-up; record makes the uploads spans of a traced run.
	setUp := func(record bool) func() (func(), error) {
		return func() (func(), error) {
			f, err := startFleet(ctx, acfg, cl, cfg.Procs, clips, tr, record)
			if err != nil {
				return nil, fmt.Errorf("start fleet: %w", err)
			}
			fl = f
			return f.close, nil
		}
	}

	var mu sync.Mutex
	digests := map[int][32]byte{}
	var queueWait, runMS, hops []float64
	traced := false
	op := func(ctx context.Context, _, i int) opResult {
		fo := seq[i]
		c := clips[fo.clip]
		kind := "repeat"
		if fo.cold {
			kind = "cold"
		}
		out := opResult{label: fmt.Sprintf("%s/%s", c.name, kind)}
		start := time.Now()
		sub, err := post(ctx, cl, fl.front.url+"/v1/jobs", "application/json", c.body)
		answered := time.Now()
		raw, ev, at, why := finishJob(ctx, cl, fl.front.url, sub, err)
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
		if traced {
			fl.traceOp(ctx, cl, tr, i, fo, c, sub, start, answered, ev, at, out.lat, &mu, &queueWait, &runMS, &hops)
		}
		return out
	}

	if err := setup.repeat(fleetSetupExtra, setUp(false)); err != nil {
		return nil, err
	}
	// Each round sets up a fresh fleet, runs its ops and tears the fleet
	// down; delta accumulates the rounds' counter changes.
	var (
		plain, tracedPh *phaseStats
		before, after   fleetCounters
		delta           fleetCounters
		phases          []*phaseStats
	)
	for r := 0; r < rounds; r++ {
		teardown, err := setup.once(setUp(cfg.Trace))
		if err != nil {
			return nil, err
		}
		begin := fl.counters(ctx, cl)
		spec := phaseSpec{clients: cfg.Procs, first: r * n, ops: n, op: op}
		if cfg.Trace {
			plain, tracedPh = runPhases(ctx, cfg, spec,
				func() { before, traced = fl.counters(ctx, cl), true },
				func() { after = fl.counters(ctx, cl) })
		} else {
			spec.limit = phaseLimit(cfg.Seconds / float64(rounds))
			phases = append(phases, runPhase(ctx, spec))
		}
		delta.add(begin, fl.counters(ctx, cl))
		teardown()
	}
	if !cfg.Trace {
		plain = mergePhases(phases)
	}

	// Reference documents: the synchronous by-hash route of a cache-less
	// single node holding the same blobs, in-process, once per clip.
	refDigests, err := fleetReferences(ctx, acfg, clips, seq, plain, tracedPh)
	if err != nil {
		return nil, err
	}
	if cfg.PlantWrong {
		d := refDigests[seq[0].clip]
		d[0] ^= 0xff
		refDigests[seq[0].clip] = d
	}
	for _, ph := range []*phaseStats{plain, tracedPh} {
		if ph == nil {
			continue
		}
		markMismatches(ph, func(i int) (bool, string) {
			mu.Lock()
			d := digests[i]
			mu.Unlock()
			if d != refDigests[seq[i].clip] {
				return false, "served document differs from the reference document"
			}
			return true, ""
		})
	}

	if err := setup.repeat(fleetSetupExtra, setUp(false)); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return report(cfg, plain, setup.samples, 99, map[string]any{
			"clients":            cfg.Procs,
			"nodes":              fleetNodes,
			"clips_uploaded":     fleetClips,
			"clips_warmed":       fleetWarm,
			"rounds":             rounds,
			"ops_per_round":      n,
			"cold_share":         coldShare(plain, seq),
			"worker_cache_hit":   hitFrac(cache.Metrics{}, delta.cache),
			"artifact_pulls":     delta.pulls,
			"dispatch_failovers": delta.failovers,
			"replica_dropped":    delta.dropped,
			"clip_geometry":      fmt.Sprintf("%d frames of %dx%d", fleetGeometry.Frames, fleetGeometry.W, fleetGeometry.H),
		}), nil
	}
	layers := map[string]float64{
		"jobs.queue_wait_ms": mean(queueWait),
		"jobs.run_ms":        mean(runMS),
		"dispatch.hop_ms":    mean(hops),
		"cache.hit_frac":     hitFrac(before.cache, after.cache),
		"artifacts.pulls":    float64(after.pulls - before.pulls),
		"dispatch.failovers": float64(delta.failovers),
		"replica.dropped":    float64(delta.dropped),
	}
	clipOf := func(i int) int { return seq[i].clip }
	if err := segmentationLayers(ctx, tr, acfg, fleetGeometry, cfg.Seed, tracedPh, clipOf); err != nil {
		return nil, err
	}
	return tracedReport(cfg, tr, plain, tracedPh, setup.samples, layers)
}

// coldShare is the share of a phase's ops that introduced a clip.
func coldShare(ph *phaseStats, seq []fleetOp) float64 {
	if len(ph.ops) == 0 {
		return 0
	}
	n := 0
	for _, op := range ph.ops {
		if seq[op.index].cold {
			n++
		}
	}
	return float64(n) / float64(len(ph.ops))
}

// fleet is a front end over fleetNodes replicating worker nodes.
type fleet struct {
	front    *listener
	frontSrv *server.Server
	workers  []*listener
	srvs     []*server.Server
	repls    []*dispatch.Replicator
}

// startFleet starts the workers and the front end, waits until the front
// answers, uploads every clip's frames blob to the front end, as a client
// would before sending by-hash requests, and then requests each of the
// first fleetWarm clips once from clients clients, so their results are
// cached when the timed phase starts. With tr set and record, each upload
// is a span.
func startFleet(ctx context.Context, acfg core.Config, cl *http.Client, clients int, clips []*fleetClip, tr *tracer, record bool) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for n := 0; n < fleetNodes; n++ {
		l, err := listen()
		if err != nil {
			f.close()
			return nil, err
		}
		repl := dispatch.NewReplicator(nil)
		o := server.DefaultOptions()
		o.Worker = true
		o.Replicator = repl
		srv, err := server.NewWithOptions(acfg, nil, o)
		if err != nil {
			repl.Close()
			l.close()
			f.close()
			return nil, err
		}
		l.serve(srv.Handler())
		f.workers, f.srvs, f.repls = append(f.workers, l), append(f.srvs, srv), append(f.repls, repl)
		urls = append(urls, l.url)
	}
	front, err := listen()
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = front
	dcfg := dispatch.DefaultConfig()
	dcfg.Nodes = urls
	dcfg.ArtifactOrigin = front.url
	dcfg.Replicate = true
	d, err := dispatch.New(dcfg)
	if err != nil {
		f.close()
		return nil, err
	}
	o := server.DefaultOptions()
	o.Dispatcher = d
	if f.frontSrv, err = server.NewWithOptions(acfg, nil, o); err != nil {
		_ = d.Close(ctx)
		f.close()
		return nil, err
	}
	front.serve(f.frontSrv.Handler())
	var health map[string]any
	if err := getJSON(ctx, cl, front.url+"/v1/healthz", &health); err != nil {
		f.close()
		return nil, err
	}
	for i, c := range clips {
		start := time.Now()
		sub, err := post(ctx, cl, front.url+"/v1/artifacts", "application/octet-stream", c.blob)
		if err == nil && sub.code != http.StatusCreated {
			err = fmt.Errorf("artifact upload answered %d: %.200s", sub.code, sub.raw)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		var doc struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(sub.raw, &doc); err != nil || doc.Hash != c.hash {
			f.close()
			return nil, fmt.Errorf("artifact upload of %s: stored under %q, want %s", c.name, doc.Hash, c.hash)
		}
		if record {
			tr.record("artifacts.put", -1-i, 0, start, time.Now())
		}
	}
	if err := f.warm(ctx, cl, clients, clips[:fleetWarm]); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// warm sends one by-hash request for each clip through the front end,
// from clients closed-loop clients, and waits for every result.
func (f *fleet) warm(ctx context.Context, cl *http.Client, clients int, clips []*fleetClip) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(clips); k += clients {
				sub, err := post(ctx, cl, f.front.url+"/v1/jobs", "application/json", clips[k].body)
				if _, _, _, why := finishJob(ctx, cl, f.front.url, sub, err); why != "" {
					errs[c] = fmt.Errorf("warm-up request for %s: %s", clips[k].name, why)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.front != nil {
		f.front.close()
	}
	if f.frontSrv != nil {
		_ = f.frontSrv.Close(ctx)
	}
	for i, l := range f.workers {
		l.close()
		_ = f.srvs[i].Close(ctx)
		f.repls[i].Close()
	}
}

// fleetCounters are the exact counters the fleet exposes on /v1/metrics.
type fleetCounters struct {
	cache     cache.Metrics // summed over the workers
	pulls     uint64        // artifact pulls, summed over the workers
	failovers uint64        // front end
	dropped   uint64        // replica pushes dropped, summed over the workers
}

// add accumulates the change from a to b.
func (c *fleetCounters) add(a, b fleetCounters) {
	c.cache.Hits += b.cache.Hits - a.cache.Hits
	c.cache.Misses += b.cache.Misses - a.cache.Misses
	c.pulls += b.pulls - a.pulls
	c.failovers += b.failovers - a.failovers
	c.dropped += b.dropped - a.dropped
}

func (f *fleet) counters(ctx context.Context, cl *http.Client) fleetCounters {
	var out fleetCounters
	for _, w := range f.workers {
		var doc struct {
			Cache       cache.Metrics     `json:"cache"`
			Artifacts   artifacts.Metrics `json:"artifacts"`
			Replication struct {
				Push jobs.ReplicaMetrics `json:"push"`
			} `json:"replication"`
		}
		if err := getJSON(ctx, cl, w.url+"/v1/metrics", &doc); err != nil {
			continue
		}
		out.cache.Hits += doc.Cache.Hits
		out.cache.Misses += doc.Cache.Misses
		out.pulls += doc.Artifacts.Pulls
		out.dropped += doc.Replication.Push.Dropped
	}
	var front struct {
		Jobs jobs.Metrics `json:"jobs"`
	}
	if err := getJSON(ctx, cl, f.front.url+"/v1/metrics", &front); err == nil {
		out.failovers = front.Jobs.Failovers
	}
	return out
}

// traceOp records one traced op's spans and side measurements: the
// front end's answer time (hit or miss), event delivery, the job's queue
// wait and run time for misses, and for hits the same request sent
// straight to the owning worker, whose latency the front-end hop adds to.
func (f *fleet) traceOp(ctx context.Context, cl *http.Client, tr *tracer, i int, fo fleetOp, c *fleetClip,
	sub submitted, start, answered time.Time, ev events.Event, at time.Time, lat time.Duration,
	mu *sync.Mutex, queueWait, runMS, hops *[]float64) {
	root := tr.record("op", i, 0, start, start.Add(lat))
	name := "server.submit_hit"
	if fo.cold {
		name = "server.submit_miss"
	}
	tr.record(name, i, root, start, answered)
	if sub.id == "" {
		return
	}
	tr.record("events.deliver", i, root, ev.At, at)
	if fo.cold {
		var status jobs.Status
		if err := getJSON(ctx, cl, f.front.url+"/v1/jobs/"+sub.id, &status); err == nil {
			mu.Lock()
			*queueWait = append(*queueWait, status.QueueWaitMS)
			*runMS = append(*runMS, status.RunMS)
			mu.Unlock()
		}
		return
	}
	var doc obs.TraceDoc
	if err := getJSON(ctx, cl, f.front.url+"/v1/jobs/"+sub.id+"/trace", &doc); err != nil || doc.Root == nil {
		return
	}
	node := doc.Root.Attrs["node"]
	if node == "" {
		return
	}
	directStart := time.Now()
	direct, err := post(ctx, cl, node+"/v1/jobs", "application/json", c.body)
	directEnd := time.Now()
	if err != nil || direct.code != http.StatusOK {
		return
	}
	tr.record("worker.direct_hit", i, root, directStart, directEnd)
	mu.Lock()
	*hops = append(*hops, ms(lat)-ms(directEnd.Sub(directStart)))
	mu.Unlock()
}

// fleetReferences computes the reference document digest of every clip
// the phases used, on a cache-less single node holding the clip's blob.
func fleetReferences(ctx context.Context, acfg core.Config, clips []*fleetClip, seq []fleetOp, phases ...*phaseStats) (map[int][32]byte, error) {
	o := server.DefaultOptions()
	o.CacheEntries = 0
	ref, err := server.NewWithOptions(acfg, nil, o)
	if err != nil {
		return nil, err
	}
	defer ref.Close(ctx)
	h := ref.Handler()
	out := map[int][32]byte{}
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		for _, op := range ph.ops {
			k := seq[op.index].clip
			if _, done := out[k]; done {
				continue
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/artifacts", bytes.NewReader(clips[k].blob))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				return nil, fmt.Errorf("reference artifact upload: %d", rec.Code)
			}
			d, err := referenceDoc(h, "/v1/analyze", "application/json", clips[k].body)
			if err != nil {
				return nil, err
			}
			out[k] = d
		}
	}
	return out, nil
}
