# Development targets. `make ci` is what the CI workflow runs on every
# PR: gofmt, vet, build, the full test suite under the race detector
# (DESIGN.md §5 — concurrent serving is a correctness feature here, so
# -race is not optional), the allocation gates (which skip themselves
# under -race), the golden numerics on 386, the benchmark module's tests
# and the eleven fuzz smokes.
# `race` runs every test in the module, so the per-feature targets
# below (crash, chaos, replication, shard, fleet, tenants, scrub,
# backup) are local conveniences that re-select a drill by name, not CI
# gates: a renamed test cannot silently leave CI, and
# TestMakefileRunPatternsNameTests fails when a name they select no
# longer exists.

GO ?= go

.PHONY: fmt build vet test race allocs golden-386 kernel experiments expdiff bench-test bench fuzz fuzz-repl fuzz-backup crash chaos replication shard fleet tenants scrub backup readme-api loc ci

# Formatting gate: fails, naming the files, if gofmt would rewrite any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# bench is a module of its own, which `go vet ./...` never reaches.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation gates of the projection kernel (DESIGN.md §6), of
# training's worker update (§6: each worker's new λ_w, Σ_w⁻¹μ_w and the
# fan-out's closure, M + 2 at widths 1 and 2; M + 6 before its buffers
# moved into the fan-out's slots) and of its ELBO (§6: 4 — two
# log-determinants and two closures — whatever the crowd, the task count
# and the width), of the skill fold (§4.3: the two posterior vectors it
# commits), of the bounded top-k selection (§6: k Items below the
# candidate count, whatever the count, and no category for a cache hit),
# of the skill index (§6: a pruned selection over 10⁴ candidates
# allocates nothing once its scratch is warm, and a fold re-bounds its
# block in place) and of the
# single-node selections handler, hot (§11: the fleet's category fields
# must cost a request that names none nothing), cold (§6: a miss against
# a full cache allocates its key string, a few bytes a term, and no
# category, counted in allocations and bytes, and counted again at
# GOMAXPROCS 2 from runtime.MemStats, since AllocsPerRun pins the width
# to 1), as a fleet's projecting leg and as its score-only leg (§8:
# every compact body is scanned, its texts tokenized in place, ranked
# and answered inside one pooled scratch, with nothing per task):
# testing.AllocsPerRun counts are exact only without the race detector,
# so the gates skip themselves in `race` — CI's one test run — and run
# here.
allocs:
	$(GO) test -run 'Alloc' ./internal/core ./internal/rank ./internal/crowddb

# The golden numerics on a second port (DESIGN.md §6): the digests of
# internal/core and the store's golden model digest hold bit for bit on
# 386 as on amd64, neither of whose compilers fuses a multiply-add into
# an FMA; other ports skip the golden tests.
golden-386:
	GOARCH=386 $(GO) test -run 'Golden' ./internal/core ./internal/crowddb

# The kernels' layer numbers, six readings each: a cold Model.Project,
# the Newton projection (time, the 2 allocations it returns, and steps/op,
# evals/op, grads/op and exps/op — how many Newton steps a projection takes,
# how often it evaluates the task objective and its gradient and how many
# exponentials it takes), one skill fold (one
# category into one worker through ConcurrentModel: time and the 2
# allocations it commits) and Eq. 1's top-10 over a whole crowd of 10³,
# 10⁴ and 10⁵ workers, by the full scan and by the skill index (time
# and scored/op, the workers a query scores); then the kernel's own
# exponential beside math.Exp, on independent operands and on chained
# ones; then one training sweep, whose E-step maximizes the same task
# objective by conjugate gradient, at GOMAXPROCS 1 and 2 (-cpu 1,2): the
# sweep fans out across GOMAXPROCS goroutines with the same bits at
# every width, so the -2 row is the one a boot pays on this 2-core host
# and the plain row the sequential cost. Run it on both sides of any
# change under internal/core/estep.go (the task objective and both of
# its solves), internal/core/exp.go, the projection and the fold in
# internal/core/project.go, the skill index in internal/core/skillindex.go
# or training in internal/core/train.go, elbo.go and fanout.go,
# alternating, with nothing else running: the counts repeat exactly, the
# times do not (not a CI gate).
kernel:
	$(GO) test -run '^$$' -bench 'Project/miss|UpdateWorkerSkill|SelectTopK' -benchmem -count 6 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkExp' -count 3 ./internal/core
	$(GO) test -run '^$$' -bench 'TrainSweep' -benchmem -benchtime 3x -cpu 1,2 -count 6 ./internal/core

# Regenerate experiments_run.txt, the raw output EXPERIMENTS.md's tables
# are copied from (≈ 2–3 min; every table, figure and ablation at a
# quarter of the paper's platform sizes). Run it — and carry the TDPM
# cells that moved into EXPERIMENTS.md — in any change that bumps
# core.KernelVersion; the F4/F6/F8 timings in it are this host's.
experiments:
	$(GO) run ./cmd/crowdbench -exp all -scale 0.25 -testtasks 2000 > experiments_run.txt

# EXPERIMENTS.md Note 4 as a program: the regenerated experiments_run.txt
# in the working copy against the committed one. Prints the cells that
# moved and fails when a TDPM ACCU / Top1 / Top2 cell moved by more than
# 0.02, a platform's mean TDPM ACCU fell by more than 0.005 or anything but
# a TDPM cell or a timing differs. Run it after `make experiments`,
# before committing the file.
expdiff:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && git show HEAD:experiments_run.txt > "$$tmp" && $(GO) run ./tools/expdiff "$$tmp" experiments_run.txt

# The repository benchmark is a module of its own (bench/go.mod), so
# ./... above never reaches its tests: schema agreement with
# BENCHMARK.json, the statistics and the host-speed kernel (< 1 s, no
# process booted).
bench-test:
	cd bench && $(GO) test ./...

# One iteration of every Go benchmark: the ablations of the root package
# and internal/core's variational-vs-MCEM one (EXPERIMENTS.md
# "Ablations", DESIGN.md §4.5) and the layer benchmarks
# (projection kernel and training sweep, the adaptive-stop sizing of
# BenchmarkProjectTolerance, top-k, online set, hot and cold selection
# and the fleet selection). The paper's tables and figures are
# `make experiments`.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/core ./internal/rank ./internal/crowddb ./internal/crowdclient

# Short coverage-guided fuzz of the journal replay path, of the
# request-body decoder against the json.Decoder it replaced (same
# status, envelope and value for any bytes, cap and read size), of the
# selections codec against encoding/json (the compact bodies' scanner
# against json.Unmarshal, the response writer against json.Encoder), of the
# one-pass bag builder against NewBagKnown(Tokenize(s)) and the map form
# (and its bytes form against its string form),
# of the projection cache's bag key against a decoder (any ids, any count
# bits), of the bounded top-k selection against the full sort and a
# merged split, and of the skill index's top-k against the full scan
# (random crowds, ties, ±0, non-finite skills, presence and shard
# subsets, folds between queries). CI runs the same smokes; bump
# -fuzztime locally for longer hunts.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplayJournal -fuzztime 20s ./internal/crowddb
	$(GO) test -run '^$$' -fuzz FuzzDecodeJSONMatchesDecoder -fuzztime 20s ./internal/crowddb
	$(GO) test -run '^$$' -fuzz FuzzScoreOnlyLegMatchesUnmarshal -fuzztime 20s ./internal/crowddb
	$(GO) test -run '^$$' -fuzz FuzzSelectionsRequestMatchesUnmarshal -fuzztime 20s ./internal/crowddb
	$(GO) test -run '^$$' -fuzz FuzzSelectionsResponseMatchesEncoder -fuzztime 20s ./internal/crowddb
	$(GO) test -run '^$$' -fuzz FuzzBagOfText -fuzztime 20s ./internal/text
	$(GO) test -run '^$$' -fuzz FuzzBagKeyRoundTrip -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzTopKEqualsFullSort -fuzztime 20s ./internal/rank
	$(GO) test -run '^$$' -fuzz FuzzSelectTopKMatchesScan -fuzztime 20s ./internal/core

# Short coverage-guided fuzz of the one frame codec: byte soup read as
# typed frames (a replication stream or backup archive) and, with the
# type bytes removed, as a journal gives the same payloads at the same
# offsets; the encoder writes every frame back byte for byte; typed
# errors on any corruption, never a panic or hang.
fuzz-repl:
	$(GO) test -run '^$$' -fuzz FuzzFrameCodec -fuzztime 20s ./internal/crowddb

# Short coverage-guided fuzz of the backup archive decoder: restore
# and verify parse operator-supplied files, so any byte soup must fail
# with a typed sentinel, never a panic.
fuzz-backup:
	$(GO) test -run '^$$' -fuzz FuzzBackupArchiveDecoder -fuzztime 20s ./internal/crowddb

# The crash-injection durability suite under the race detector.
crash:
	$(GO) test -race -run 'TestCrashRecoveryLosesNothing|TestTornWriteTable|TestCompactionKeepsAckedWrites|TestFailedGenerationWriteSeals|TestJournalPastNewestSnapshot|TestOneMaintenanceLoop' -v ./internal/crowddb

# The network/disk chaos suite (faultnet + faultfs through a real
# client) and the proxy's own tests, under the race detector.
chaos:
	$(GO) test -race -v ./internal/chaos/ ./internal/faultnet/

# The replication failover drill (DESIGN.md §10): a real primary/
# follower pair through a faultnet partition, primary kill, verified
# promotion — zero acked-mutation loss, byte-identical model — and the
# replica suite, whose bootstrap test holds a fresh follower's
# generation 1 byte-equal to the primary's.
replication:
	$(GO) test -race -run 'TestChaosReplicationFailover|TestReplica|TestReplication' -v ./internal/chaos/ ./internal/crowddb

# The sharding suite (DESIGN.md §11) under the race detector: the
# merge-equivalence property, the fleet-vs-single-node e2e equality,
# the pooled selection legs' aliasing oracle, the wrong-shard routing
# contract and the shard kill/rebalance drill.
shard:
	$(GO) test -race -run 'TestMergeTopK|TestRouter|TestSelectionsPoolIsNotShared|TestWrongShard|TestShardOfWorker|TestStoreStridedTaskIDs|TestChaosShardKillAndRebalance' -v ./internal/rank/ ./internal/crowddb/ ./internal/crowdclient/ ./internal/chaos/

# The fencing & supervision suite (DESIGN.md §12) under the race
# detector: fencing-epoch semantics, the lease seal, the concurrent-
# promotion race, the supervisor state machine, the Multi's
# route-policy contract, and the split-brain chaos drill — asymmetric
# partition, auto-promotion, zero dual-primary acks, zero
# acked-mutation loss.
fleet:
	$(GO) test -race -run 'TestFence|TestFencing|TestFenced|TestFleetToken|TestLease|TestConcurrentPromotion|TestPromotionFailure|TestSupervisor|TestMultiWriteFollowsFencedRedirect|TestMultiFencedRedirectIsBounded|TestMultiRoutePolicy|TestProxyOneWay|TestChaosSplitBrainFencedFailover' -v ./internal/crowddb/ ./internal/fleet/ ./internal/crowdclient/ ./internal/faultnet/ ./internal/chaos/

# The tenancy suite (DESIGN.md §13) under the race detector: alias
# equivalence, tenant isolation, quota shedding, journal stamping and
# cross-tenant refusal, interleaved crash recovery, the slice
# constructor's refusals, a tenant added to a restored node, the
# two-tenant failover drill, and the README/route-table agreement check.
tenants:
	$(GO) test -race -run 'TestTenant|TestOpenTenant|TestValidTenantName|TestSplitTenantPath|TestUnknownTenant|TestNewValidatesTheDescription|TestMultiTenant|TestClientTenant|TestDefaultJournalHasNoTenantStamps|TestAPIReferenceMatchesMux|TestErrorEnvelope|TestGateMatrixByClass|TestMetricsLabel|TestChaosTenantFailover|TestParseTenantsFlag|TestBuildServiceTenants|TestBootGateEnvelope' -v ./internal/crowddb/ ./internal/crowdclient/ ./internal/chaos/ ./cmd/crowdd/

# The integrity suite (DESIGN.md §14) under the race detector: digest
# determinism across replay/replication/compaction, the background
# scrubber's corruption detection and heal, the boot's refusal of a
# generation that fails the same verification (and a follower's
# re-bootstrap past one), heartbeat anti-entropy (divergence quarantine
# + forced re-bootstrap), the supervisor's refusal of unsafe standbys,
# and the at-rest corruption chaos drills.
scrub:
	$(GO) test -race -run 'TestDigest|TestReplicatedDigest|TestScrub|TestBootRefuses|TestOpenRefuses|TestReplicaBootstrapsPast|TestHeartbeatDigest|TestReadyzAndMetricsCarryIntegrity|TestMetricsIntegritySchema|TestAtRestCorruption|TestSupervisorRefusesUnsafeStandby|TestSupervisorDrainRefusesUnsafeStandby|TestSupervisorUnsafeFlagClears|TestChaosFollowerAtRestCorruption|TestChaosPrimaryScrubber' -v ./internal/crowddb/ ./internal/faultfs/ ./internal/fleet/ ./internal/chaos/

# The backup & disaster-recovery suite (DESIGN.md §15) under the race
# detector: archive round-trip, incremental chains, point-in-time
# restore, resume-after-interrupt, typed refusals of damaged archives,
# offline verification against tampering and of a sharded node's
# archive, the slow-disk latency
# regression, and the chaos drill (primary killed mid-backup, stream
# resumed, restore proven digest-identical with every acked mutation
# exactly once), a refused restore leaving
# its destination as found, and the one generation writer's stamps
# (a compaction's sidecar digests are the hashes of its files).
backup:
	$(GO) test -race -run 'TestBackup|TestVerifyBackupProvesAndRefutes|TestVerifyBackupShardedArchive|TestCompactionRotatesGenerations|TestSlowFsyncUnderIntervalStaysHealthy|TestFaultfsLatencyInjection|TestChaosBackupRestoreDrill' -v ./internal/crowddb/ ./internal/chaos/

# Regenerate the README's two generated tables: the API reference from
# the server's route registrations and the error codes from the server's
# error table (kept honest by TestAPIReferenceMatchesMux and
# TestErrorTableMatchesREADME).
readme-api:
	$(GO) run ./tools/readme-api

# Non-test Go source lines per package and in total, bench/ (a module
# of its own) excluded: the arithmetic ROADMAP aim 2 and item 9 quote.
# The last line is the _test.go total beside it: code moved into a test
# file is no reduction.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l | awk '{ printf "%7d total in _test.go files\n", $$1 }'

ci: fmt vet build race allocs golden-386 bench-test fuzz fuzz-repl fuzz-backup
