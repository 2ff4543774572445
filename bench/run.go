package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/rank"
)

// boots is how many times a run boots its fleet from an empty data
// directory; setup_s is the fastest of them.
const boots = 5

// runConfig is one run: one workload, one seed.
type runConfig struct {
	workDir string // bench/.work: binaries, cached datasets, run dirs, spans
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	keep    bool
	out     io.Writer // progress and tables, for people
}

// phaseCount is the failure accounting of one phase.
type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func countOf(p phase) phaseCount {
	return phaseCount{Sent: p.sent, Succeeded: p.sent - p.failed, Failed: p.failed}
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Set       string                `json:"set,omitempty"` // A or B in an -aa session
	N         int                   `json:"n"`
	Clients   int                   `json:"sat_clients"`
	DataDirFS string                `json:"data_dir_fs"`
	WallS     float64               `json:"wall_s"`
	Correct   bool                  `json:"correct"`
	Error     string                `json:"error,omitempty"`
	Phases    map[string]phaseCount `json:"phases"`
	Measured  map[string]float64    `json:"measured"`
	BootsS    []float64             `json:"boots_s"`
	// BootsAtRefS are the boots at reference host speed.
	BootsAtRefS []float64 `json:"boots_at_ref_s"`
}

func (r *runResult) attempted() (sent, failed int) {
	for _, p := range r.Phases {
		sent += p.Sent
		failed += p.Failed
	}
	return sent, failed
}

var sink float64

// speedProbe times a fixed 4 M-iteration float loop. It is stamped on
// every run so that a slow host can be told from a slow build; it is
// not used to normalise anything, because the server's request path
// slows down by more than this loop does when the host does.
func speedProbe() time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < 4_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	sink = x
	return time.Since(start)
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
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
	return fmt.Sprintf("0x%X", uint32(st.Type))
}

// satClients is the closed-loop client count of the sat phase.
func satClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runWorkload performs one run. It always returns a result; Correct is
// false and Error set when a check, an assertion or an op failed.
func runWorkload(ctx context.Context, cfg runConfig) *runResult {
	start := time.Now()
	res := &runResult{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		N: cfg.wl.seqOps(cfg.seconds), Clients: satClients(),
		Phases: map[string]phaseCount{}, Measured: map[string]float64{},
	}
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	if err := run(ctx, cfg, res); err != nil {
		res.Error = err.Error()
	} else {
		res.Correct = true
	}
	res.WallS = time.Since(start).Seconds()
	return res
}

func run(ctx context.Context, cfg runConfig, res *runResult) (err error) {
	wl := cfg.wl
	m := res.Measured

	// Inputs. The platform is the same for every seed; the seed draws
	// the text pool.
	prepStart := time.Now()
	for i := range workloads {
		// Generating a crowd's dataset takes seconds, so the first run in
		// a checkout, the one that is allowed to be slow, makes them all.
		if err := ensureDataset(datasetPath(cfg.workDir, workloads[i].workers), workloads[i].workers); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
	}
	plat, err := loadPlatform(datasetPath(cfg.workDir, wl.workers), wl.offline)
	if err != nil {
		return err
	}
	texts, err := genTexts(plat.d, cfg.seed, wl.pool)
	if err != nil {
		return err
	}
	m["gen.prep_s"] = time.Since(prepStart).Seconds()
	probe := speedProbe()

	runDir, err := os.MkdirTemp(cfg.workDir, "run-"+wl.name+"-")
	if err != nil {
		return err
	}
	res.DataDirFS = fsName(runDir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var fl *fleet
	defer func() {
		if fl != nil {
			fl.killAll()
		}
		if tr != nil {
			path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, cfg.seed))
			if werr := tr.writeFile(path); werr != nil && err == nil {
				err = werr
			}
		}
		if cfg.keep {
			fmt.Fprintln(cfg.out, "kept run dir", runDir)
		} else if rerr := os.RemoveAll(runDir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	meter := &speedMeter{k: newRefKernel()}
	if fl, err = setUp(ctx, cfg, plat, runDir, meter, res); err != nil {
		return err
	}

	bootModel := filepath.Join(fl.nodes[0].dir, "model-00000001.json")
	ref, err := core.LoadModelFile(bootModel)
	if err != nil {
		return fmt.Errorf("boot checkpoint: %w", err)
	}
	if cfg.trace {
		// Compaction removes the generation; the replay needs it later.
		kept := filepath.Join(runDir, "boot-model.json")
		if err := copyFile(bootModel, kept); err != nil {
			return err
		}
		bootModel = kept
	}

	s, err := newSession(ctx, wl, plat, fl, cfg.seed, texts, tr)
	if err != nil {
		return err
	}
	if err := s.setPresence(ctx); err != nil {
		return err
	}
	if err := s.verifyTraffic(ctx, ref); err != nil {
		return err
	}
	ref = nil // a 10000-worker model is megabytes the phases should not carry

	n := res.N
	ph, err := s.phases(ctx, cfg, n, meter)
	if ph != nil {
		res.Phases["warmup"], res.Phases["seq"], res.Phases["sat"] = countOf(ph.warm), countOf(ph.seq), countOf(ph.sat)
	}
	if err != nil {
		return err
	}
	ph.derive(m, n)
	fn := float64(n)

	// The node's own view, after the last phase.
	var errorsSeen, shed float64
	for i, nd := range fl.nodes {
		var snap crowddb.MetricsSnapshot
		if err := getJSON(nd.url, "/api/v1/metrics", &snap); err != nil {
			return err
		}
		errorsSeen += float64(snap.Errors)
		shed += float64(snap.Shed)
		if i == 0 {
			m["server.handle_select_p50_ms"] = snap.Endpoints["POST /api/v1/selections"].P50Ms
			m["server.handle_mutate_p50_ms"] = mutationP50(snap)
		}
	}
	m["server.errors"] = errorsSeen
	m["server.shed"] = shed
	if s.router != nil {
		m["router.partials"] = float64(s.router.Partials())
		m["router.refreshes"] = float64(s.router.Refreshes())
	}

	// Traffic assertions: a number is published only for the traffic the
	// workload claims to be.
	ratio := m["core.cache_hit_ratio"]
	switch {
	case wl.cold() && ratio >= 0.01:
		return fmt.Errorf("cold workload hit the projection cache: ratio %.4f", ratio)
	case wl.hot() && ratio <= 0.99:
		return fmt.Errorf("hot workload missed the projection cache: ratio %.4f", ratio)
	case errorsSeen != 0 || shed != 0:
		return fmt.Errorf("servers count %v errors and %v shed requests, want 0", errorsSeen, shed)
	case m["router.partials"] != 0:
		return fmt.Errorf("router skipped %v scatter legs", m["router.partials"])
	}
	if err := s.verifyStore(); err != nil {
		return err
	}

	if cfg.trace {
		m["router.requests_per_op"] = float64(ph.wireRequests) / fn
		m["router.wire_kb_per_op"] = float64(ph.wireBytes) / fn / 1024
		if err := tracedPass(ctx, cfg, s, tr, bootModel, runDir, ph.seqFirst, m); err != nil {
			return err
		}
	}

	if wl.lifecycle {
		recovery, err := s.crashDrill(ctx)
		if err != nil {
			return err
		}
		m["store.recovery_s"] = recovery.Seconds()
	}
	m["gen.speed_probe_ms"] = (ms(probe) + ms(speedProbe())) / 2
	return nil
}

// setUp boots the workload's fleet from empty data dirs, boots times
// over, and leaves the last fleet up. The host's speed is read before,
// between and after the boots, and each boot is set against the readings
// on either side of it.
func setUp(ctx context.Context, cfg runConfig, plat *platform, runDir string, meter *speedMeter, res *runResult) (fl *fleet, err error) {
	defer func() {
		if err != nil && fl != nil {
			fl.killAll()
		}
	}()
	m := res.Measured
	gap := append([]float64(nil), meter.tick(8)...)
	for b := 0; b < boots; b++ {
		root := filepath.Join(runDir, fmt.Sprintf("boot%d", b))
		if err := os.MkdirAll(root, 0o755); err != nil {
			return fl, err
		}
		if fl, err = newFleet(filepath.Join(cfg.workDir, "bin", "crowdd"), plat.path, root, cfg.wl.shards); err != nil {
			return fl, err
		}
		d, err := fl.boot(ctx)
		if err != nil {
			return fl, err
		}
		next := append([]float64(nil), meter.tick(8)...)
		res.BootsS = append(res.BootsS, d.Seconds())
		res.BootsAtRefS = append(res.BootsAtRefS, d.Seconds()*speedFrom(gap, next))
		gap = next
		if b < boots-1 {
			fl.killAll()
			if err := os.RemoveAll(root); err != nil {
				return fl, err
			}
		}
	}
	meter.take() // the phases read the speed afresh
	for _, n := range fl.nodes {
		u, err := readProcUsage(n.pid())
		if err != nil {
			return fl, err
		}
		m["setup.cpu_s"] += u.run.Seconds()
		kb, err := dirSizeKB(n.dir, "snapshot-*.json", "model-*.json")
		if err != nil {
			return fl, err
		}
		m["setup.snapshot_kb"] += kb
	}
	m["gen.setup_raw_s"] = slices.Min(res.BootsS)
	m["setup_s"] = median(res.BootsAtRefS)
	m["setup.boot_spread"] = slices.Max(res.BootsS) / slices.Min(res.BootsS)
	return fl, nil
}

// phases is what the measured stretch of a run yields: the three
// phases, the counters on either side of the seq phase, and the host's
// speed over each timing.
type phases struct {
	warm, seq, sat          phase
	before, after           []counters // per node, around seq
	seqFirst                int64      // the stream index seq started at
	satRates                []float64  // ops per second of each 1-s window
	seqSpeed, satSpeed      float64
	clientCPU               time.Duration
	wireRequests, wireBytes int64 // over seq; traced runs only
}

// phases runs the warm-up, the seq phase between its two scrapes, and
// the sat phase. It returns what it has even when it fails, for the
// failure accounting.
func (s *session) phases(ctx context.Context, cfg runConfig, n int, meter *speedMeter) (*phases, error) {
	ph := &phases{}
	ph.warm = s.fixedWork(ctx, n/12, nil)

	// seq: fixed work, one waiting client.
	nodes := s.fl.nodes
	ph.before, ph.after = make([]counters, len(nodes)), make([]counters, len(nodes))
	var err error
	for i, nd := range nodes {
		if ph.before[i], err = scrape(nd, false); err != nil {
			return ph, err
		}
	}
	if s.wire != nil {
		ph.wireRequests, ph.wireBytes = s.wire.requests.Load(), s.wire.bytes.Load()
	}
	ph.seqFirst = s.next.Load()
	cpu0, kernel0 := selfCPU(), meter.spent
	ph.seq = s.fixedWork(ctx, n, meter)
	ph.clientCPU = selfCPU() - cpu0 - (meter.spent - kernel0)
	ph.seqSpeed = meter.take()
	if s.wire != nil {
		ph.wireRequests, ph.wireBytes = s.wire.requests.Load()-ph.wireRequests, s.wire.bytes.Load()-ph.wireBytes
	}
	for i, nd := range nodes {
		if ph.after[i], err = scrape(nd, true); err != nil {
			return ph, err
		}
	}

	// sat: fixed time, as many waiting clients as the box has cores
	// for, one 1-s window at a time with the host's speed read between
	// the windows.
	windows := cfg.seconds / 2
	if windows < 1 {
		windows = 1
	}
	meter.tick(3)
	for w := 0; w < windows; w++ {
		p := s.fixedTime(ctx, satClients(), time.Second)
		ph.satRates = append(ph.satRates, rateOver(p.done, time.Second))
		ph.sat.merge(p.opLog)
		meter.tick(3)
	}
	ph.satSpeed = meter.take()

	for _, p := range []phase{ph.warm, ph.seq, ph.sat} {
		if p.failed > 0 {
			return ph, fmt.Errorf("%d ops failed, the first: %w", p.failed, p.err)
		}
	}
	return ph, ctx.Err()
}

// derive turns the phases into the end-to-end metrics and the
// per-layer metrics that are counts or scrapes, and so cost nothing to
// take on every run.
func (ph *phases) derive(m map[string]float64, n int) {
	fn := float64(n)
	var alloc, mallocs, gcs, heapLive float64
	var usage procUsage
	var hits, misses, records, fsyncs, jbytes, compactions float64
	for i := range ph.before {
		b, a := ph.before[i], ph.after[i]
		alloc += float64(a.heap.totalAlloc - b.heap.totalAlloc)
		mallocs += float64(a.heap.mallocs - b.heap.mallocs)
		// The closing reading forced one collection of its own.
		gcs += float64(a.heap.numGC-b.heap.numGC) - 1
		heapLive += float64(a.heap.heapAlloc)
		usage = usage.add(a.usage.sub(b.usage))
		if a.metrics.Cache != nil && b.metrics.Cache != nil {
			hits += float64(a.metrics.Cache.Hits - b.metrics.Cache.Hits)
			misses += float64(a.metrics.Cache.Misses - b.metrics.Cache.Misses)
		}
		if a.metrics.Durability != nil && b.metrics.Durability != nil {
			records += float64(a.metrics.Durability.RecordsWritten - b.metrics.Durability.RecordsWritten)
			fsyncs += float64(a.metrics.Durability.Fsyncs - b.metrics.Durability.Fsyncs)
			jbytes += float64(a.metrics.Durability.BytesWritten - b.metrics.Durability.BytesWritten)
			compactions += float64(a.metrics.Durability.Compactions - b.metrics.Durability.Compactions)
		}
	}
	seq, sat := ph.seq, ph.sat
	m["gen.op_p50_raw_ms"] = median(seq.ops)
	m["gen.sat_ops_raw_s"] = median(ph.satRates)
	m["gen.host_speed"] = ph.seqSpeed
	m["op_p50_ms"] = m["gen.op_p50_raw_ms"] * ph.seqSpeed
	m["sat_ops_s"] = m["gen.sat_ops_raw_s"] / ph.satSpeed
	m["alloc_kb_per_op"] = alloc / fn / 1024
	m["heap_live_mb"] = heapLive / (1 << 20)

	if hits+misses > 0 {
		m["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["journal.records_per_op"] = records / fn
	m["journal.fsyncs_per_op"] = fsyncs / fn
	m["journal.bytes_per_op"] = jbytes / fn
	m["store.compactions"] = compactions
	m["proc.cpu_ms_per_op"] = ms(usage.run) / fn
	m["proc.cpu_sys_ms_per_op"] = ms(usage.sys) / fn
	m["proc.runq_wait_ms_per_op"] = ms(usage.wait) / fn
	m["proc.vol_ctx_switches_per_op"] = float64(usage.volCtx) / fn
	m["proc.mallocs_per_op"] = mallocs / fn
	m["proc.gc_cycles_per_kop"] = gcs / fn * 1000
	m["proc.rss_hwm_mb"] = float64(usage.hwmKB) / 1024
	m["gen.op_p90_ms"] = percentile(seq.ops, 0.90)
	m["gen.op_p99_ms"] = percentile(seq.ops, 0.99)
	m["gen.op_samples"] = float64(len(seq.ops))
	m["gen.select_p50_ms"] = median(seq.sel)
	m["gen.mutate_p50_ms"] = median(seq.mut)
	m["gen.sat_p50_ms"] = median(sat.ops)
	m["gen.client_cpu_share"] = ph.clientCPU.Seconds() / seq.wall.Seconds()
}

// mutationP50 is the count-weighted mean of the node's own p50 over
// the script's three mutation endpoints.
func mutationP50(snap crowddb.MetricsSnapshot) float64 {
	var sum, count float64
	for _, ep := range []string{"POST /api/v1/tasks", "POST /api/v1/tasks/{id}/answers", "POST /api/v1/tasks/{id}/feedback"} {
		if e, ok := snap.Endpoints[ep]; ok {
			sum += e.P50Ms * float64(e.Count)
			count += float64(e.Count)
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// tracedPass is what only a traced run does after its phases: the
// router's span arithmetic and a direct scored leg per shard on a
// sharded fleet, the live floor of a trivial request, the in-process
// replay, and the budget table that sets the layers against the live
// single-client p50.
func tracedPass(ctx context.Context, cfg runConfig, s *session, tr *tracer, bootModel, runDir string, seqFirst int64, m map[string]float64) error {
	wl := cfg.wl
	lt := &layerTimer{tr: tr}
	seqLast := seqFirst + int64(cfg.wl.seqOps(cfg.seconds))

	region := func(r, i int) []string {
		// Regions sit in the second half of the pool, which no live phase
		// of the default length reaches; the replay's caches are its own
		// in any case.
		return s.opTexts(int64(len(s.texts)/2/wl.textsPerOp + r*2*replaySamples + i))
	}

	shard := crowddb.ShardSpec{}
	if s.router != nil {
		shard = crowddb.ShardSpec{Index: 0, Count: wl.shards}
		m["router.selections_us"] = m["gen.op_p50_raw_ms"] * 1000
		m["router.self_us"] = median(tr.selfTimes("client.op", seqFirst, seqLast))

		// One direct scored leg per shard, one at a time, and the merge of
		// the captured legs.
		clients := make([]*crowdclient.Client, wl.shards)
		for i, u := range s.fl.urls() {
			clients[i] = crowdclient.New(u, crowdclient.Options{Retries: -1, BreakerThreshold: -1, RetryBudget: -1})
		}
		var perText [][][]rank.Item
		var legUS []float64
		for i := 0; i < replaySamples; i++ {
			textsOfOp := region(5, i)
			tasks := submitRequests(textsOfOp, selectK)
			lists := make([][][]rank.Item, len(textsOfOp))
			for _, c := range clients {
				var resp crowddb.SelectionsResponse
				var err error
				d := tr.timed("router.leg", int64(i), func() { resp, err = c.SelectionsScored(ctx, tasks) })
				if err != nil {
					return fmt.Errorf("direct scored leg: %w", err)
				}
				legUS = append(legUS, float64(d)/float64(time.Microsecond))
				for j, r := range resp.Results {
					items := make([]rank.Item, len(r.Workers))
					for k, w := range r.Workers {
						items[k] = rank.Item{ID: w, Score: r.Scores[k]}
					}
					lists[j] = append(lists[j], items)
				}
			}
			perText = append(perText, lists...)
		}
		m["router.leg_us"] = median(legUS)
		m["rank.merge_us"] = lt.p50("rank.merge", len(perText), func(i int) error {
			rank.MergeTopK(perText[i], selectK)
			return nil
		})
	}

	live := lt.p50("http.healthz_live", replaySamples, func(int) error {
		var v map[string]string
		return getJSON(s.fl.nodes[0].url, "/healthz", &v)
	})
	if lt.err != nil {
		return lt.err
	}

	env, err := newReplayEnv(s.plat, bootModel, runDir, shard)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer env.close()
	in := replayInputs{wl: wl, seed: cfg.seed, ops: region, liveHealthzUS: live}
	if wl.hot() {
		if in.missTexts, err = genTexts(s.plat.d, cfg.seed+1, 2*replaySamples); err != nil {
			return err
		}
	}
	layers, err := env.replay(ctx, in, tr)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for k, v := range layers {
		m[k] = v
	}
	printBudget(cfg.out, wl, m)
	return nil
}

// budgetRow is one line of the budget table.
type budgetRow struct {
	label string
	us    float64
}

// times is the row for n calls of the layer metric called name.
func times(m map[string]float64, n float64, name string) budgetRow {
	label := name
	if n != 1 {
		label = fmt.Sprintf("%g x %s", n, name)
	}
	return budgetRow{label, n * m[name]}
}

// leafRows are the leaves one selection request of the workload waits
// for. RankBatch fans a batch's projections out over GOMAXPROCS
// goroutines, so a request of 8 texts on 2 cores waits for 4
// projections in a row, not 8; tokenizing and ranking stay sequential.
// The lifecycle workload's selections mostly meet a cache that the
// last feedback emptied, so they count as misses.
func leafRows(wl *workload, m map[string]float64) []budgetRow {
	per := wl.textsPerOp
	width := runtime.GOMAXPROCS(0)
	if width > per {
		width = per
	}
	rounds := (per + width - 1) / width
	project := "core.project_miss_us"
	if wl.hot() {
		project = "core.project_hit_us"
	}
	return []budgetRow{
		times(m, float64(per), "text.bag_us"),
		times(m, float64(rounds), project),
		times(m, 1, "store.candidates_us"),
		times(m, float64(per), "rank.topk_us"),
	}
}

func leafSum(wl *workload, m map[string]float64) float64 {
	var sum float64
	for _, r := range leafRows(wl, m) {
		sum += r.us
	}
	return sum
}

// budget lists what the layers explain of one live op, outside in.
// Composites appear by their self time, leaves by their p50 times the
// number of calls an op waits for. On a sharded fleet the rows below
// the router describe one leg; the legs run in parallel.
func budget(wl *workload, m map[string]float64) []budgetRow {
	var rows []budgetRow
	if wl.shards > 1 {
		// The router's self time is the op outside its legs' round
		// trips, and so already holds the merges.
		rows = append(rows, times(m, 1, "router.self_us"))
	}
	if wl.lifecycle {
		return append(rows,
			times(m, 10, "http.process_gap_us"),
			times(m, 1, "http.loopback_self_us"),
			times(m, 1, "server.handler_self_us"),
			times(m, 1, "manager.submit_us"),
			times(m, submitK, "store.record_answer_us"),
			times(m, 1, "manager.resolve_us"),
			times(m, 5, "manager.rankonly_us"),
		)
	}
	rows = append(rows,
		times(m, 1, "http.process_gap_us"),
		times(m, 1, "http.loopback_self_us"),
		times(m, 1, "server.handler_self_us"),
		times(m, 1, "manager.rankonly_self_us"),
	)
	return append(rows, leafRows(wl, m)...)
}

// printBudget sets the layer sum against the live single-client p50 and
// names the remainder gen.unexplained_us.
func printBudget(w io.Writer, wl *workload, m map[string]float64) {
	live := m["gen.op_p50_raw_ms"] * 1000 // the layers are timed raw, too
	rows := budget(wl, m)
	var sum float64
	fmt.Fprintf(w, "\nbudget of one %s op, live single-client p50 = %.1f us\n", wl.name, live)
	for _, r := range rows {
		sum += r.us
		fmt.Fprintf(w, "  %-34s %10.1f us %6.1f %%\n", r.label, r.us, 100*r.us/live)
	}
	m["gen.unexplained_us"] = live - sum
	fmt.Fprintf(w, "  %-34s %10.1f us %6.1f %%\n", "layers explain", sum, 100*sum/live)
	fmt.Fprintf(w, "  %-34s %10.1f us %6.1f %%\n", "gen.unexplained_us", live-sum, 100*(live-sum)/live)
}
