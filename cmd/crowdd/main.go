// Command crowdd runs the task-driven crowd-selection service of
// Figure 1: it generates (or loads) a crowdsourcing dataset, trains
// TDPM on the resolved tasks, registers the workers in the crowd
// database and serves the crowd-manager HTTP API.
//
// Usage:
//
//	crowdd -profile quora -scale 0.1 -k 10 -addr :8080
//	crowdd -data quora.json -k 10 -addr :8080
//	crowdd -data-dir /var/lib/crowdd -sync always -addr :8080
//	crowdd -replica-of http://primary:8080 -data-dir /var/lib/crowdd-replica -addr :8081
//
// With -data-dir the crowd database is durable: every mutation is
// appended to a checksummed write-ahead journal under the configured
// -sync policy, the store and skill posteriors are checkpointed
// atomically every -compact-every records, and on restart the daemon
// recovers the newest valid snapshot plus journal instead of
// retraining. While recovery runs the listener is already up but
// GET /readyz (and /api/v1/*) answer 503, so load balancers hold traffic;
// GET /healthz is 200 throughout. On SIGINT/SIGTERM the server flips
// /readyz to 503, drains in-flight requests for up to -drain, then
// compacts and closes the data directory.
//
// Overload and resilience controls: -max-inflight is the ceiling of an
// adaptive AIMD admission limit (floor -admission-min) that sheds
// excess reads with 429 before mutations; -read-budget/-write-budget
// arm server-side deadlines whose overruns answer 503
// deadline_exceeded and drive the limit down; -max-body caps POST
// bodies (413); -read-timeout/-write-timeout/-idle-timeout set the
// http.Server socket deadlines. If a journal append or fsync fails,
// the daemon enters degraded read-only mode: mutations answer 503
// degraded_read_only while selections keep serving from the last
// committed model, and a background probe heals the data directory and
// reopens writes automatically.
//
// With -tenants a,b the daemon hosts additional named crowds next to
// the default one. Each tenant owns a full vertical slice — store,
// journal (under <data-dir>/tenants/<name>), model, query engine,
// replication stream — served under /api/v1/t/<name>/...; the
// un-prefixed /api/v1/* routes keep addressing the default tenant. A
// fresh tenant starts from a clone of the default tenant's trained
// model and worker roster and diverges as its own feedback arrives.
// -tenant-quota caps every tenant's concurrent in-flight requests so
// one noisy crowd cannot starve the rest (breaches shed with 429
// tenant_quota_exceeded).
//
// With -replica-of the daemon runs as a warm standby: it bootstraps a
// snapshot from the primary, streams its journal, applies every record
// through the recovery path into its own durable directory, and serves
// read-only selections while refusing mutations with 421 not_primary
// and an X-Crowdd-Primary redirect. GET /readyz reports the role and
// replication lag; POST /api/v1/replication/promote (crowdctl promote)
// seals the stream and flips the node to primary for verified
// failover.
//
// Endpoints: the /api/v1 routes of crowddb.APIRoutes (the README's
// API reference table is generated from it), GET /healthz, GET /readyz
// and, with -pprof, the net/http/pprof handlers under /debug/pprof/.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/crowdql"
	"crowdselect/internal/eval"
)

// daemonConfig collects everything run needs; flag parsing stays in
// main so tests can drive run directly.
type daemonConfig struct {
	profile      string
	scale        float64
	data         string
	k, crowdK    int
	sweeps       int
	addr         string
	drain        time.Duration
	pprofOn      bool
	dataDir      string
	replicaOf    string
	shard        crowddb.ShardSpec
	shardPeers   []string
	sync         crowddb.SyncPolicy
	compactEvery int64
	scrubEvery   time.Duration
	maxInflight  int
	admissionMin int
	readBudget   time.Duration
	writeBudget  time.Duration
	maxBody      int64
	fleetToken   string
	tenants      []string
	tenantQuota  int
	timeouts     httpTimeouts
}

// httpTimeouts carries the http.Server socket timeouts: the outer
// defense against slow-loris clients and connections wedged mid-body,
// one layer below the per-request deadline budgets.
type httpTimeouts struct {
	read  time.Duration // full-request read deadline (0 = none)
	write time.Duration // response write deadline (0 = none)
	idle  time.Duration // keep-alive idle deadline (0 = none)
}

func main() {
	var (
		profile = flag.String("profile", "quora", "platform profile to generate when -data is empty")
		scale   = flag.Float64("scale", 0.1, "generation scale")
		data    = flag.String("data", "", "path to a crowdgen dataset JSON (overrides -profile)")
		k       = flag.Int("k", 10, "latent categories")
		crowdK  = flag.Int("crowd", 3, "default crowd size per task")
		addr    = flag.String("addr", ":8080", "listen address")
		sweeps  = flag.Int("sweeps", 0, "override TDPM training sweeps (0 = default)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		dataDir      = flag.String("data-dir", "", "durable data directory (empty = in-memory only)")
		replicaOf    = flag.String("replica-of", "", "run as a warm-standby read replica of the primary at this base URL (requires -data-dir)")
		shardFlag    = flag.String("shard", "", "shard identity i/N: own workers hashed to shard i of N, mint task ids ≡ i (mod N), refuse misrouted mutations with 421 wrong_shard (empty = unsharded)")
		shardPeers   = flag.String("shard-peers", "", "comma-separated base URLs of all N shard primaries, index order; seeds the epoch-1 topology served at /api/v1/topology")
		syncFlag     = flag.String("sync", "always", "journal fsync policy: always, os, every=N or interval=DUR")
		compactEvery = flag.Int64("compact-every", 10000, "journal records between automatic snapshots (0 disables)")
		scrubEvery   = flag.Duration("scrub-interval", time.Minute, "background at-rest integrity scrub cadence: re-verify journal CRCs and snapshot/model checksums, entering degraded read-only on corruption (0 disables)")
		maxInflight  = flag.Int("max-inflight", 0, "adaptive admission ceiling: max concurrently served /api requests; excess sheds with 429 (0 = unlimited)")
		admissionMin = flag.Int("admission-min", 1, "adaptive admission floor the AIMD limit never shrinks below")
		readBudget   = flag.Duration("read-budget", 0, "server-side deadline for read requests; overruns answer 503 deadline_exceeded (0 = none)")
		writeBudget  = flag.Duration("write-budget", 0, "server-side deadline for mutations (0 = none)")
		maxBody      = flag.Int64("max-body", 0, "POST body cap in bytes; oversized requests get 413 (0 = 1 MiB default)")
		fleetToken   = flag.String("fleet-token", "", "shared bearer token gating the replication/fleet control surface (fence, lease, promote, stream); empty = open")
		tenantsFlag  = flag.String("tenants", "", "comma-separated names of additional tenants to host under /api/v1/t/{name}/ (empty = default tenant only)")
		tenantQuota  = flag.Int("tenant-quota", 0, "per-tenant cap on concurrent in-flight API requests; breaches shed with 429 tenant_quota_exceeded (0 = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: full-request read deadline (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout: response write deadline (0 = none)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections (0 = none)")
	)
	flag.Parse()
	policy, err := crowddb.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdd:", err)
		os.Exit(2)
	}
	shard, peers, err := parseShardFlags(*shardFlag, *shardPeers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdd:", err)
		os.Exit(2)
	}
	tenants, err := parseTenantsFlag(*tenantsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdd:", err)
		os.Exit(2)
	}
	cfg := daemonConfig{
		profile: *profile, scale: *scale, data: *data,
		k: *k, crowdK: *crowdK, sweeps: *sweeps,
		addr: *addr, drain: *drain, pprofOn: *pprofOn,
		dataDir: *dataDir, replicaOf: *replicaOf,
		shard: shard, shardPeers: peers, sync: policy,
		compactEvery: *compactEvery, scrubEvery: *scrubEvery,
		maxInflight:  *maxInflight,
		admissionMin: *admissionMin,
		readBudget:   *readBudget, writeBudget: *writeBudget,
		maxBody: *maxBody, fleetToken: *fleetToken,
		tenants: tenants, tenantQuota: *tenantQuota,
		timeouts: httpTimeouts{read: *readTimeout, write: *writeTimeout, idle: *idleTimeout},
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crowdd:", err)
		os.Exit(1)
	}
}

// parseShardFlags turns the -shard and -shard-peers flag values into a
// shard identity and peer list. Both flags default to empty, which is
// the unsharded single-node deployment: the zero spec, no peers.
func parseShardFlags(shardFlag, shardPeers string) (crowddb.ShardSpec, []string, error) {
	shard, err := crowddb.ParseShardSpec(shardFlag)
	if err != nil {
		return crowddb.ShardSpec{}, nil, err
	}
	var peers []string
	if shardPeers != "" {
		for _, p := range strings.Split(shardPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) != shard.Count {
			return crowddb.ShardSpec{}, nil, fmt.Errorf("-shard-peers lists %d URLs for %d shards", len(peers), shard.Count)
		}
	}
	return shard, peers, nil
}

// parseTenantsFlag splits and validates the -tenants list. The default
// tenant always exists and must not be re-listed.
func parseTenantsFlag(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var names []string
	seen := make(map[string]bool)
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !crowddb.ValidTenantName(n) {
			return nil, fmt.Errorf("-tenants: invalid tenant name %q", n)
		}
		if n == crowddb.DefaultTenant {
			return nil, fmt.Errorf("-tenants: %q is built in, do not list it", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("-tenants: duplicate tenant %q", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	return names, nil
}

// bootGate is the handler installed while the service is still being
// built (training or recovery): /healthz answers 200, everything else
// 503 with Retry-After, so load balancers can distinguish "process
// alive" from "ready for traffic" from the first accepted connection.
// Once the real server is installed it takes over entirely.
type bootGate struct {
	srv atomic.Pointer[crowddb.Server]
}

func (g *bootGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := g.srv.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, `{"error":{"code":"unavailable","message":"starting: recovery in progress"}}`)
}

// drainStarted flips readiness off so probes fail before connections
// start draining.
func (g *bootGate) drainStarted() {
	if s := g.srv.Load(); s != nil {
		s.SetReady(false)
	}
}

func run(cfg daemonConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before the (potentially slow) build so probes see the
	// boot gate's 503s instead of connection refusals.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	gate := &bootGate{}
	var handler http.Handler = gate
	if cfg.pprofOn {
		handler = withPprof(handler)
	}
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, ln, handler, cfg.drain, cfg.timeouts, gate.drainStarted) }()
	log.Printf("listening on %s (not ready: building service)", ln.Addr())

	srv, slices, err := buildNode(cfg)
	if err != nil {
		stop()
		<-errc
		return err
	}
	gate.srv.Store(srv)
	log.Printf("crowd-selection service ready on %s (%d tenants, %d workers online)", ln.Addr(), len(srv.Tenants()), slices[0].Manager.Store().NumOnline())

	err = serveErr(<-errc)
	// Each slice stops its stream, compacts, so the next boot restores
	// without replay, and closes.
	for _, sl := range slices {
		if cerr := sl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	snap := srv.Metrics().Snapshot()
	log.Printf("served %d requests (%d errors, %d shed) over %s", snap.Requests, snap.Errors, snap.Shed, time.Duration(snap.UptimeSeconds*float64(time.Second)).Round(time.Second))
	return err
}

func serveErr(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// serve runs handler on ln until ctx is cancelled, then shuts down
// gracefully: onDrain (may be nil) runs first so readiness probes go
// dark, the listener closes, in-flight requests get up to drain to
// finish, and whatever remains is forcibly closed. It is split from
// run so tests can drive the full lifecycle against a 127.0.0.1:0
// listener.
func serve(ctx context.Context, ln net.Listener, handler http.Handler, drain time.Duration, timeouts httpTimeouts, onDrain func()) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       timeouts.read,
		WriteTimeout:      timeouts.write,
		IdleTimeout:       timeouts.idle,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	log.Printf("shutting down: draining in-flight requests (up to %s)", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// withPprof mounts the net/http/pprof handlers next to the service
// API — the profiling hook for chasing latency under live traffic.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// trainSeed is the default tenant's fresh start: the -data or -profile
// dataset and a TDPM model trained on its resolved tasks.
func trainSeed(cfg daemonConfig) (d *corpus.Dataset, model *core.Model, err error) {
	if cfg.data != "" {
		log.Printf("loading dataset from %s", cfg.data)
		d, err = corpus.LoadFile(cfg.data)
	} else {
		log.Printf("generating %s dataset at scale %g", cfg.profile, cfg.scale)
		var p corpus.Profile
		if p, err = corpus.ProfileByName(cfg.profile); err == nil {
			d, err = corpus.Generate(p.Scaled(cfg.scale))
		}
	}
	if err != nil {
		return nil, nil, err
	}
	log.Print(d.Stats())

	trainCfg := core.NewConfig(cfg.k)
	if cfg.sweeps > 0 {
		trainCfg.MaxIter = cfg.sweeps
	}
	log.Printf("training TDPM with K=%d", cfg.k)
	start := time.Now()
	var stats *core.TrainStats
	model, stats, err = core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), trainCfg)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("trained in %s (%d sweeps, converged=%v)", time.Since(start).Round(time.Millisecond), stats.Sweeps, stats.Converged)
	return d, model, nil
}

// cloneModel deep-copies a trained model through its serialized form,
// so a new tenant starts from the default tenant's latent space without
// sharing mutable posterior state.
func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return core.LoadModel(&buf)
}

// buildNode assembles the node: a slice for the default tenant (at the
// -data-dir root) and one per -tenants name (at
// <data-dir>/tenants/<name>), described to one server. A fresh named
// tenant is seeded with the default tenant's dataset and a clone of its
// model: every crowd shares one latent space until its own feedback
// diverges it. A follower (-replica-of) needs -data-dir. On error every
// opened slice is closed.
func buildNode(cfg daemonConfig) (_ *crowddb.Server, slices []*crowddb.Tenant, err error) {
	if cfg.replicaOf != "" && cfg.dataDir == "" {
		return nil, nil, errors.New("-replica-of requires -data-dir")
	}
	defer func() {
		if err != nil {
			for _, sl := range slices {
				sl.Close()
			}
		}
	}()
	// The seed dataset lives only while the slices are built: the
	// default tenant's training set, or its directory's on a restart.
	var seedData *corpus.Dataset
	seed := func() (d *corpus.Dataset, model *core.Model, err error) {
		if len(slices) == 0 {
			seedData, model, err = trainSeed(cfg)
			return seedData, model, err
		}
		if seedData == nil {
			if seedData, err = corpus.LoadFile(slices[0].DB.DatasetPath()); err != nil {
				return nil, nil, err
			}
		}
		model, err = cloneModel(slices[0].Model.Unwrap())
		return seedData, model, err
	}
	for _, name := range append([]string{crowddb.DefaultTenant}, cfg.tenants...) {
		dir := cfg.dataDir
		if dir != "" && name != crowddb.DefaultTenant {
			dir = filepath.Join(dir, "tenants", name)
		}
		sl, err := crowddb.OpenTenant(crowddb.SliceConfig{
			Name: name, Dir: dir, ReplicaOf: cfg.replicaOf,
			Shard: cfg.shard, CrowdK: cfg.crowdK, FleetToken: cfg.fleetToken,
			DB: crowddb.Options{
				Sync:                cfg.sync,
				CompactEveryRecords: cfg.compactEvery,
				ScrubInterval:       cfg.scrubEvery,
				Logf:                log.Printf,
			},
			Seed: seed,
			Logf: log.Printf,
		})
		if err != nil {
			return nil, slices, fmt.Errorf("tenant %s: %w", name, err)
		}
		slices = append(slices, sl)
		log.Printf("tenant %s ready (%d workers online)", name, sl.Manager.Store().NumOnline())
	}

	node := slices[0].Node(slices[1:]...)
	for i := range node.Tenants {
		engine, err := crowdql.NewEngine(node.Tenants[i].Manager)
		if err != nil {
			return nil, slices, fmt.Errorf("tenant %s: %w", node.Tenants[i].Name, err)
		}
		node.Tenants[i].Query = crowdql.HTTPAdapter{Engine: engine}
		node.Tenants[i].MaxInflight = cfg.tenantQuota
	}
	node.FleetToken, node.Topology, node.Logf = cfg.fleetToken, seedTopology(cfg), log.Printf
	// Adaptive AIMD between the floor and the flag's ceiling; the limit
	// starts at the ceiling and backs off on deadline overruns.
	// -max-inflight 0 runs no controller.
	node.Admission = crowddb.AdmissionConfig{Min: cfg.admissionMin, Max: cfg.maxInflight}
	node.ReadBudget, node.WriteBudget, node.MaxBody = cfg.readBudget, cfg.writeBudget, cfg.maxBody
	srv, err := crowddb.New(node)
	return srv, slices, err
}

// seedTopology is the epoch-1 fleet layout from -shard-peers, so
// routers can discover the fleet from any node before an operator
// pushes a newer epoch via crowdctl topology; nil without peers.
func seedTopology(cfg daemonConfig) *crowddb.Topology {
	if len(cfg.shardPeers) == 0 {
		return nil
	}
	doc := &crowddb.Topology{Epoch: 1, Count: cfg.shard.Count}
	for i, u := range cfg.shardPeers {
		doc.Shards = append(doc.Shards, crowddb.ShardAddr{Index: i, URL: u})
	}
	return doc
}
