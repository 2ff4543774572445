package main

import "fmt"

// baseSeconds is the --seconds value the frozen op counts below were
// sized for; another value scales them in proportion.
const baseSeconds = 10

// selectK is the crowd size every selection asks for.
const selectK = 10

// submitK is the crowd a lifecycle script's task is dispatched to, and
// so the number of answers it collects.
const submitK = 3

// hotPool is the size of the text pool of the workloads that are meant
// to hit the projection cache: far below its 8192 entries.
const hotPool = 64

// scriptPool is the text pool of the lifecycle workload. Every feedback
// empties the projection cache whatever the pool's size, so the pool
// only has to be large enough that the mean projection cost of its
// texts does not move with the seed: with 64 texts alloc_kb_per_op
// moved by ±2 % from seed to seed, with 4096 it does not.
const scriptPool = 4096

// coldPool is the size of the text pool of the workloads that are meant
// to miss it: eight times its 8192 entries, so that even a text met
// again after the stream wraps has long been evicted.
const coldPool = 65536

// workload is one fixed traffic shape against one fleet shape.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json carries.
	why string
	// workers is the crowd the dataset is generated with; offline is the
	// share of it switched offline through the presence API.
	workers int
	offline float64
	shards  int
	// pool is the number of distinct texts the seed draws; textsPerOp of
	// them go into one selection request.
	pool       int
	textsPerOp int
	// lifecycle makes the op the ten-request script (submit, three
	// answers, feedback, five single-text selections).
	lifecycle bool
	// baseN is the frozen op count of the seq phase at baseSeconds:
	// about half the run at this sandbox's fast host state.
	baseN int
}

var workloads = []workload{
	{
		name: "select_cold", workers: 950, offline: 0.9, shards: 1,
		pool: coldPool, textsPerOp: 8, baseN: 2000,
		why: "8 never-seen texts per request on a 95-candidate crowd: projection-bound, the cache never hits, ranking is a few percent",
	},
	{
		name: "select_bigcrowd", workers: 10000, offline: 0, shards: 1,
		pool: hotPool, textsPerOp: 1, baseN: 1500,
		why: "one hot text per request on 10000 online workers: projection is a cache hit, candidate walk and top-k sort are the request",
	},
	{
		name: "lifecycle_durable", workers: 950, offline: 0, shards: 1,
		pool: scriptPool, textsPerOp: 1, lifecycle: true, baseN: 800,
		why: "submit, 3 answers, feedback, 5 selections per op: journal fsyncs, posterior writes and the epoch bump that empties the cache beside reads",
	},
	{
		name: "fleet_cold", workers: 950, offline: 0.9, shards: 2,
		pool: coldPool, textsPerOp: 8, baseN: 1300,
		why: "select_cold's stream through crowdclient.Router on two shard processes: scatter, duplicate projection and merge, the sharding tax",
	},
}

// hot reports a workload whose every projection is meant to hit the
// cache, cold one whose every projection is meant to miss it. The
// lifecycle workload is neither: its feedback keeps emptying the cache.
func (w *workload) hot() bool  { return w.pool == hotPool }
func (w *workload) cold() bool { return w.pool == coldPool }

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seqOps is the fixed op count of the seq phase for a run of the given
// length.
func (w *workload) seqOps(seconds int) int {
	n := w.baseN * seconds / baseSeconds
	if n < 12 {
		n = 12
	}
	return n
}

// checkOps is how many ops of the stream the reference check consumes,
// so that together they make 256 selections.
func (w *workload) checkOps() int { return 256 / w.textsPerOp }
