// Package crowdselect is a from-scratch Go implementation of
// task-driven crowd-selection query processing for crowdsourcing
// databases, reproducing
//
//	Zhao, Wei, Zhou, Chen, Ng. "Crowd-Selection Query Processing in
//	Crowdsourcing Databases: A Task-Driven Approach." EDBT 2015.
//
// The library answers the paper's central question — given a
// crowdsourced task, who is the right worker to ask? — with TDPM, a
// Bayesian model that learns "who knows what": unnormalized worker
// skills over a latent category space, inferred variationally from
// past resolved tasks with feedback scores, with incremental
// projection of newly arriving tasks for real-time selection.
//
// # Quick start
//
//	tasks := []crowdselect.ResolvedTask{ ... }      // past tasks + feedback
//	cfg := crowdselect.NewConfig(10)                // 10 latent categories
//	model, _, err := crowdselect.Train(tasks, numWorkers, vocabSize, cfg)
//	...
//	cat := model.Project(bag)                       // new task → latent category
//	workers := model.SelectTopK(cat.Mean(), nil, 3) // Eq. 1 top-k selection
//
// The package also exposes the full experimental apparatus of the
// paper: synthetic Quora / Yahoo! Answer / Stack Overflow corpora, the
// VSM / TSPM / DRM baselines, the ACCU and TopK measures, and a crowd
// database with an HTTP crowd manager. See the examples directory and
// cmd/crowdbench for end-to-end usage.
package crowdselect

import (
	"context"
	"io"
	"time"

	"crowdselect/internal/baseline/drm"
	"crowdselect/internal/baseline/tspm"
	"crowdselect/internal/baseline/vsm"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/crowdql"
	"crowdselect/internal/eval"
	"crowdselect/internal/fleet"
	"crowdselect/internal/lda"
	"crowdselect/internal/plsa"
	"crowdselect/internal/randx"
	"crowdselect/internal/sim"
	"crowdselect/internal/text"
)

// Core model types (the paper's contribution, §§4–6).
type (
	// Config controls TDPM training; see NewConfig for defaults.
	Config = core.Config
	// Model is a trained TDPM.
	Model = core.Model
	// ResolvedTask is a past task with feedback used for training.
	ResolvedTask = core.ResolvedTask
	// Scored is one (worker, feedback score) pair.
	Scored = core.Scored
	// TaskCategory is a task's posterior latent category.
	TaskCategory = core.TaskCategory
	// TrainStats reports ELBO trajectory and convergence.
	TrainStats = core.TrainStats
)

// ConcurrentModel is a Model wrapped for concurrent serving: any
// number of selection reads (Project/Rank/SelectTopK) run in parallel
// with incremental skill updates without data races. NewManager wraps
// bare models automatically; use this type directly when driving a
// Model from your own goroutines.
type ConcurrentModel = core.ConcurrentModel

// NewConcurrentModel wraps a trained model for concurrent
// select/update traffic. The wrapper owns synchronization from here
// on: do not keep mutating m directly.
func NewConcurrentModel(m *Model) *ConcurrentModel { return core.NewConcurrentModel(m) }

// ErrNoData is returned by Train when given no scored tasks.
var ErrNoData = core.ErrNoData

// ErrBadUpdate is returned by Model.UpdateWorkerSkill[Drift] on
// invalid input (mismatched lengths, negative process variance,
// out-of-range worker).
var ErrBadUpdate = core.ErrBadUpdate

// NewConfig returns the default TDPM configuration with k latent
// categories.
func NewConfig(k int) Config { return core.NewConfig(k) }

// Train fits a TDPM on resolved tasks (Algorithm 2 of the paper).
func Train(tasks []ResolvedTask, numWorkers, vocabSize int, cfg Config) (*Model, *TrainStats, error) {
	return core.Train(tasks, numWorkers, vocabSize, cfg)
}

// Monte-Carlo EM inference: the sampling alternative to the paper's
// variational algorithm (same generative model, drop-in Model).
type (
	// MCEMConfig controls the Gibbs/Metropolis sampler.
	MCEMConfig = core.MCEMConfig
	// MCEMStats reports sampler behaviour.
	MCEMStats = core.MCEMStats
)

// NewMCEMConfig returns sampler defaults for k latent categories.
func NewMCEMConfig(k int) MCEMConfig { return core.NewMCEMConfig(k) }

// TrainMCEM fits TDPM by Monte-Carlo EM instead of variational
// inference.
func TrainMCEM(tasks []ResolvedTask, numWorkers, vocabSize int, cfg MCEMConfig) (*Model, *MCEMStats, error) {
	return core.TrainMCEM(tasks, numWorkers, vocabSize, cfg)
}

// LoadModel reads a model previously written with (*Model).Save.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// LoadModelFile reads a model from a file written with
// (*Model).SaveFile.
func LoadModelFile(path string) (*Model, error) { return core.LoadModelFile(path) }

// Text substrate (§4.1.1).
type (
	// Bag is a sparse bag of vocabularies.
	Bag = text.Bag
	// Vocabulary interns terms to dense ids.
	Vocabulary = text.Vocabulary
)

// Tokenize splits task text into terms, dropping stopwords.
func Tokenize(s string) []string { return text.Tokenize(s) }

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return text.NewVocabulary() }

// NewBag interns tokens and returns their bag representation.
func NewBag(v *Vocabulary, tokens []string) Bag { return text.NewBag(v, tokens) }

// NewBagKnown builds a bag using only already-interned terms.
func NewBagKnown(v *Vocabulary, tokens []string) Bag { return text.NewBagKnown(v, tokens) }

// Jaccard returns the Jaccard similarity of two bags' term sets
// (the Yahoo!-style feedback of §4.1.5).
func Jaccard(a, b Bag) float64 { return text.Jaccard(a, b) }

// Synthetic corpora (§7.1 substitute; see DESIGN.md).
type (
	// Dataset is a generated crowdsourcing platform.
	Dataset = corpus.Dataset
	// Profile parameterizes generation.
	Profile = corpus.Profile
	// DatasetTask is one generated task.
	DatasetTask = corpus.Task
	// DatasetWorker is one generated worker.
	DatasetWorker = corpus.Worker
)

// Platform profiles at the scales documented in DESIGN.md.
func QuoraProfile() Profile         { return corpus.Quora() }
func YahooProfile() Profile         { return corpus.Yahoo() }
func StackOverflowProfile() Profile { return corpus.StackOverflow() }

// GenerateDataset synthesizes a dataset from a profile
// (Algorithm 1 of the paper).
func GenerateDataset(p Profile) (*Dataset, error) { return corpus.Generate(p) }

// LoadDatasetFile reads a dataset previously written with
// (*Dataset).SaveFile — e.g. the copy a DurableDB keeps in its data
// directory so restarts recover the vocabulary without regenerating.
func LoadDatasetFile(path string) (*Dataset, error) { return corpus.LoadFile(path) }

// DataRecord is one answered-task row from a real platform dump.
type DataRecord = corpus.Record

// DatasetFromRecords ingests real platform records so every algorithm
// and experiment runs on your own data; the returned map resolves
// worker names to the dense ids the models use.
func DatasetFromRecords(name string, records []DataRecord) (*Dataset, map[string]int, error) {
	return corpus.FromRecords(name, records)
}

// ReadRecordsCSV parses records from CSV
// (header: task_id,text,worker,score[,best]).
func ReadRecordsCSV(r io.Reader) ([]DataRecord, error) { return corpus.ReadRecordsCSV(r) }

// ResolvedTasksOf converts a generated dataset into training input.
func ResolvedTasksOf(d *Dataset) []ResolvedTask { return eval.ResolvedTasks(d) }

// Crowd database substrate (§2, Figure 1).
type (
	// Store is the crowd database.
	Store = crowddb.Store
	// Manager is the crowd manager.
	Manager = crowddb.Manager
	// Server exposes the manager over HTTP.
	Server = crowddb.Server
	// TaskRecord is a stored task row.
	TaskRecord = crowddb.TaskRecord
	// CrowdWorker is a stored worker row.
	CrowdWorker = crowddb.Worker
)

// NewStore returns an empty crowd database.
func NewStore() *Store { return crowddb.NewStore() }

// ManagerConfig collects a Manager's dependencies (store, vocabulary,
// selector, crowd size, optional shard identity and tenant namespace)
// for NewManagerWith.
type ManagerConfig = crowddb.ManagerConfig

// NewManagerWith wires a crowd manager from an options struct — the
// growable form of NewManager.
func NewManagerWith(cfg ManagerConfig) (*Manager, error) {
	return crowddb.NewManagerWith(cfg)
}

// NewManager wires a crowd manager over the store with the given
// selector and default crowd size k; NewManagerWith also takes the
// shard identity and tenant namespace.
func NewManager(store *Store, vocab *Vocabulary, sel crowddb.Selector, k int) (*Manager, error) {
	return crowddb.NewManager(store, vocab, sel, k)
}

// NewServer wraps a manager with the HTTP API.
func NewServer(mgr *Manager) *Server { return crowddb.NewServer(mgr) }

// Versioned v1 HTTP API surface: wire DTOs shared by the server and
// the typed client, plus the client itself.
type (
	// TaskSubmission is one element of Manager.SubmitBatch.
	TaskSubmission = crowddb.TaskSubmission
	// SubmitRequest is the body of POST /api/v1/tasks (and one element
	// of a batch).
	SubmitRequest = crowddb.SubmitRequest
	// SubmitResponse is the result of one task submission.
	SubmitResponse = crowddb.SubmitResponse
	// BatchSubmitRequest is the body of POST /api/v1/tasks:batch.
	BatchSubmitRequest = crowddb.BatchSubmitRequest
	// BatchSubmitResponse is one SubmitResponse per task, in order.
	BatchSubmitResponse = crowddb.BatchSubmitResponse
	// SelectionsResponse is the body of POST /api/v1/selections — the
	// pure ranking path that stores nothing and keeps serving in
	// degraded read-only mode.
	SelectionsResponse = crowddb.SelectionsResponse
	// SelectionResult is one ranked crowd within a SelectionsResponse.
	SelectionResult = crowddb.SelectionResult
	// StatsResponse is the body of GET /api/v1/stats.
	StatsResponse = crowddb.StatsResponse
	// APIErrorBody is the payload of the v1 error envelope.
	APIErrorBody = crowddb.ErrorBody
	// APIClient is the typed HTTP client for the v1 API, with built-in
	// timeouts and retry/backoff. Scope one to a named tenant with the
	// Options.Tenant field or the ForTenant method.
	APIClient = crowdclient.Client
	// APIClientOptions tunes an APIClient (timeouts, retries, breaker,
	// fleet token, tenant namespace).
	APIClientOptions = crowdclient.Options
	// APIError is a non-2xx response decoded from the error envelope.
	APIError = crowdclient.APIError
	// APIClientStats snapshots the client's resilience counters
	// (breaker state, retry tokens, hedges).
	APIClientStats = crowdclient.ClientStats
)

// ErrCircuitOpen is returned by an APIClient without touching the
// network while its circuit breaker is open (the server has been
// unreachable at the transport level); branch with errors.Is.
var ErrCircuitOpen = crowdclient.ErrCircuitOpen

// NewAPIClient returns a typed client for the crowdd at baseURL.
func NewAPIClient(baseURL string, opts APIClientOptions) *APIClient {
	return crowdclient.New(baseURL, opts)
}

// Durable crowd database: a checksummed write-ahead journal plus
// atomic snapshot generations under a data directory, with boot-time
// recovery that restores both the store and the TDPM skill
// posteriors. See DESIGN.md §7 for the durability contract and
// examples/durability for the lifecycle end to end.
type (
	// DurableDB owns a data directory: snapshot generations, the
	// model checkpoint, and the live journal.
	DurableDB = crowddb.DB
	// DurabilityOptions configures the fsync policy and compaction
	// thresholds of a DurableDB.
	DurabilityOptions = crowddb.Options
	// SyncPolicy decides when journal appends reach stable storage.
	SyncPolicy = crowddb.SyncPolicy
	// DurabilitySnapshot is a point-in-time view of the durability
	// counters (generation, records, fsyncs, recovery cost).
	DurabilitySnapshot = crowddb.DurabilitySnapshot
)

// OpenDurable opens (or initialises) a data directory, restoring the
// newest valid snapshot into the embedded store. A restored database
// still needs Recover to replay the journal tail; a fresh one needs
// Begin to start journaling.
func OpenDurable(dir string, opts DurabilityOptions) (*DurableDB, error) {
	return crowddb.Open(dir, opts)
}

// SyncAlways fsyncs after every record: an acknowledged mutation is
// on disk before the caller sees success.
func SyncAlways() SyncPolicy { return crowddb.SyncAlways() }

// SyncEvery fsyncs after every n records (group commit).
func SyncEvery(n int) SyncPolicy { return crowddb.SyncEvery(n) }

// SyncInterval fsyncs when d has elapsed since the last sync.
func SyncInterval(d time.Duration) SyncPolicy { return crowddb.SyncInterval(d) }

// ParseSyncPolicy parses the -sync flag syntax: "always", "os",
// "every=N", or "interval=DURATION".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return crowddb.ParseSyncPolicy(s) }

// Warm-standby replication (DESIGN.md §10): a primary streams its
// journal to followers that serve read-only selections and can be
// promoted on failover.
type (
	// Replica is a warm standby: a durable copy of a primary's
	// database and model, continuously applied from the replicated
	// journal, promotable once caught up.
	Replica = crowddb.Replica
	// ReplicaOptions configures StartReplica (primary URL, data
	// directory, serving-stack builder).
	ReplicaOptions = crowddb.ReplicaOptions
	// TransferSource ships a node's state over HTTP: its Stream handler
	// feeds followers (Server.SetReplicationSource), its Segment handler
	// cuts backup archives (Server.SetBackupSource).
	TransferSource = crowddb.TransferSource
	// ReplicationStatus reports role, stream position and lag — the
	// replication block of /readyz and /api/v1/metrics.
	ReplicationStatus = crowddb.ReplicationStatus
	// ReplicationLag is the follower's distance behind the primary in
	// records, journal bytes and seconds since last contact.
	ReplicationLag = crowddb.ReplicationLag
	// APIMulti fans one logical client across a primary and its read
	// replicas: reads round-robin with failover, writes follow the
	// primary (including 421 redirects after a promotion).
	APIMulti = crowdclient.Multi
)

// StartReplica opens (or re-opens) a follower data directory and
// starts streaming from the primary; see crowdd's -replica-of flag
// for the daemon form.
func StartReplica(opts ReplicaOptions) (*Replica, error) { return crowddb.StartReplica(opts) }

// NewAPIMulti builds a multi-endpoint client over the given base URLs
// (the first is the initial believed primary).
func NewAPIMulti(endpoints []string, opts APIClientOptions) (*APIMulti, error) {
	return crowdclient.NewMulti(endpoints, opts)
}

// Horizontal sharding (DESIGN.md §11): workers partitioned across
// crowdd shards by consistent hashing, selections scatter-gathered by
// a shard-aware router so the fleet answers exactly like one node.
type (
	// ShardSpec is a node's slice of the fleet: index i of count N
	// (crowdd's -shard i/N flag).
	ShardSpec = crowddb.ShardSpec
	// ShardTopology is the epoch-versioned fleet layout served at
	// GET /api/v1/topology.
	ShardTopology = crowddb.Topology
	// ShardAddr names one shard's primary URL and replicas inside a
	// ShardTopology.
	ShardAddr = crowddb.ShardAddr
	// WrongShardRefusal is the typed 421 wrong_shard refusal, carrying
	// the owning shard's index.
	WrongShardRefusal = crowddb.WrongShardError
	// APIRouter is the shard-aware client: scatter-gather selections,
	// home-shard task routing, cross-shard feedback fan-out, live
	// topology refresh on wrong_shard refusals.
	APIRouter = crowdclient.Router
)

// ErrWrongShard tags requests refused by a shard that does not own
// the addressed worker; branch with errors.Is.
var ErrWrongShard = crowddb.ErrWrongShard

// ErrStaleTopologyEpoch rejects a topology install whose epoch does
// not exceed the currently installed one.
var ErrStaleTopologyEpoch = crowddb.ErrStaleEpoch

// ParseShardSpec parses crowdd's -shard flag syntax "i/N".
func ParseShardSpec(s string) (ShardSpec, error) { return crowddb.ParseShardSpec(s) }

// ShardOfWorker returns the shard owning a worker id in a fleet of
// count shards — the same consistent-hash ring servers and routers
// share.
func ShardOfWorker(id, count int) int { return crowddb.ShardOfWorker(id, count) }

// ShardOfTask returns the home shard of a task id (ids are strided:
// shard i mints ids congruent to i mod count).
func ShardOfTask(id, count int) int { return crowddb.ShardOfTask(id, count) }

// NewAPIRouter discovers the fleet topology from the seed URLs and
// returns a shard-aware router over it.
func NewAPIRouter(ctx context.Context, seeds []string, opts APIClientOptions) (*APIRouter, error) {
	return crowdclient.NewRouter(ctx, seeds, opts)
}

// Split-brain fencing and fleet supervision (DESIGN.md §12): every
// history carries a monotonic fencing epoch; a node that observes a
// higher epoch than its own seals itself — mutations and replication
// serving refuse with a typed 409 fenced carrying the new primary —
// and the crowdctl supervise loop watches the fleet, auto-promotes the
// most caught-up standby when a primary dies, and fences the loser.
type (
	// Fence is one node's fencing state: its own epoch, the highest
	// epoch it has observed, and the mutation lease a supervisor keeps
	// renewed; sealed when observed exceeds own or the lease lapses.
	Fence = crowddb.Fence
	// FenceStatus is the fencing block of /readyz and
	// /api/v1/metrics: epochs, sealed state and lease.
	FenceStatus = crowddb.FenceStatus
	// FenceRequest is the POST /api/v1/replication/fence body: impose
	// an epoch on a deposed node.
	FenceRequest = crowddb.FenceRequest
	// FenceResponse acknowledges a fence order with the node's
	// resulting role and fencing state.
	FenceResponse = crowddb.FenceResponse
	// LeaseRequest is the POST /api/v1/replication/lease body: the
	// supervisor's heartbeat that doubles as the mutation lease.
	LeaseRequest = crowddb.LeaseRequest
	// FleetSpec declares the supervised fleet: one primary plus warm
	// standbys per shard.
	FleetSpec = fleet.Spec
	// FleetShard is one shard's serving group inside a FleetSpec.
	FleetShard = fleet.ShardFleet
	// FleetNode names one crowdd process in a FleetSpec.
	FleetNode = fleet.Node
	// FleetSupervisor probes the fleet, holds the mutation lease, and
	// heals dead primaries by promote/fence/topology-push.
	FleetSupervisor = fleet.Supervisor
	// FleetOptions tunes probe cadence, suspicion threshold and lease
	// TTL (which must undercut SuspectAfter × ProbeInterval).
	FleetOptions = fleet.Options
	// FleetStatus is the supervisor's snapshot (GET /status on its
	// admin listener).
	FleetStatus = fleet.Status
)

// ErrFenced tags refusals from a sealed node: the mutation provably
// was not applied, and the error carries the new primary when known;
// branch with errors.Is.
var ErrFenced = crowddb.ErrFenced

// ErrPromotionInProgress is returned to the losers of a promotion
// race: exactly one caller wins, everyone else gets this (or the
// winner's result once it completes).
var ErrPromotionInProgress = crowddb.ErrPromotionInProgress

// NewFence builds the fencing state for a database (nil for a pure
// in-memory node); attach to a Server with SetFence.
func NewFence(db *DurableDB) *Fence { return crowddb.NewFence(db) }

// NewFleetSupervisor validates the declared fleet and the option
// coherence (lease TTL below the suspicion deadline) and returns a
// supervisor; drive it with Run.
func NewFleetSupervisor(spec FleetSpec, opts FleetOptions) (*FleetSupervisor, error) {
	return fleet.New(spec, opts)
}

// Crowd-selection query language (internal/crowdql):
//
//	SELECT CROWD FOR TASK '...' LIMIT 3
//	SELECT WORKERS WHERE resolved >= 5 ORDER BY resolved DESC
//	INSERT WORKER 7 NAME 'alice' / UPDATE WORKER 7 SET online = false
type (
	// QueryEngine executes crowdql statements against a manager.
	QueryEngine = crowdql.Engine
	// QueryResult is a tabular query result.
	QueryResult = crowdql.Result
)

// NewQueryEngine wraps a manager with the crowdql executor.
func NewQueryEngine(mgr *Manager) (*QueryEngine, error) { return crowdql.NewEngine(mgr) }

// ParseQuery parses one crowdql statement without executing it.
func ParseQuery(q string) (crowdql.Query, error) { return crowdql.Parse(q) }

// Evaluation harness (§7).
type (
	// Selector is the algorithm interface all four methods implement.
	Selector = eval.Selector
	// Group is a worker group Datasetₙ.
	Group = eval.Group
	// EvalResult aggregates ACCU, Top1/Top2 and latency.
	EvalResult = eval.Result
	// Algo names one of the four compared algorithms.
	Algo = eval.Algo
	// TrainOptions tunes baseline/TDPM training in the harness.
	TrainOptions = eval.TrainOptions
)

// The four algorithms of §7.2.1.
const (
	AlgoVSM  = eval.AlgoVSM
	AlgoTSPM = eval.AlgoTSPM
	AlgoDRM  = eval.AlgoDRM
	AlgoTDPM = eval.AlgoTDPM
)

// ACCU is the precision measure of §7.2.2.
func ACCU(rbest, size int) float64 { return eval.ACCU(rbest, size) }

// ExtractGroup builds the worker group with ≥ threshold solved tasks.
func ExtractGroup(d *Dataset, threshold int) Group { return eval.ExtractGroup(d, threshold) }

// Evaluate runs a selector over test tasks of a group.
func Evaluate(d *Dataset, sel Selector, g Group, taskIDs []int, k int) EvalResult {
	return eval.Evaluate(d, sel, g, taskIDs, k)
}

// TestTasks samples evaluation tasks for a group per §7.3.1.
func TestTasks(d *Dataset, g Group, maxN int, seed int64) []int {
	return eval.TestTasks(d, g, maxN, seed)
}

// TrainAlgo fits any of the four algorithms on a dataset.
func TrainAlgo(d *Dataset, algo Algo, opts TrainOptions) (Selector, error) {
	return eval.Train(d, algo, opts)
}

// RecallCurve returns Top-k recall for k = 1..maxK — the curve behind
// the paper's Top1/Top2 columns.
func RecallCurve(d *Dataset, sel Selector, g Group, taskIDs []int, maxK int) []float64 {
	return eval.RecallCurve(d, sel, g, taskIDs, maxK)
}

// BootstrapCI returns a percentile bootstrap confidence interval for
// the mean of values.
func BootstrapCI(values []float64, iters int, alpha float64, seed int64) (lo, hi float64, err error) {
	return eval.BootstrapCI(values, iters, alpha, seed)
}

// Baseline types, for direct use outside the harness.
type (
	// VSM is the cosine-similarity baseline.
	VSM = vsm.Selector
	// TSPM is the LDA-based baseline.
	TSPM = tspm.Selector
	// DRM is the PLSA-based baseline.
	DRM = drm.Selector
	// LDAConfig configures the LDA substrate.
	LDAConfig = lda.Config
	// PLSAConfig configures the PLSA substrate.
	PLSAConfig = plsa.Config
)

// RNG is the deterministic random source used across the library.
type RNG = randx.RNG

// NewRNG returns a seeded RNG.
func NewRNG(seed int64) *RNG { return randx.New(seed) }

// Closed-loop routing simulation (internal/sim): route tasks with a
// policy, simulate the answers, measure realized quality.
type (
	// RoutingPolicy picks workers for an arriving task.
	RoutingPolicy = sim.Policy
	// RoutingConfig controls a simulation run.
	RoutingConfig = sim.Config
	// RoutingResult aggregates realized answer quality and regret.
	RoutingResult = sim.Result
	// SelectorPolicy adapts any Selector to a routing policy.
	SelectorPolicy = sim.SelectorPolicy
	// RandomPolicy is the no-model control policy.
	RandomPolicy = sim.RandomPolicy
)

// NewOraclePolicy routes with the generator's hidden ground truth —
// the upper bound for any learned policy.
func NewOraclePolicy(d *Dataset) *sim.OraclePolicy { return sim.NewOraclePolicy(d) }

// SimulateRouting routes the tasks through the policy and measures
// realized answer quality against oracle routing.
func SimulateRouting(d *Dataset, taskIDs []int, p RoutingPolicy, cfg RoutingConfig) (RoutingResult, error) {
	return sim.Run(d, taskIDs, p, cfg)
}
