package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/text"
)

// session drives one workload's traffic at one booted fleet.
type session struct {
	wl       *workload
	plat     *platform
	fl       *fleet
	seed     int64
	texts    []string // the seeded pool
	isOnline []bool   // by worker id
	hc       *http.Client
	router   *crowdclient.Router // sharded workloads only
	tr       *tracer             // nil unless --trace 1
	wire     *tracingTransport   // nil unless --trace 1

	next  atomic.Int64 // next op of the stream
	acked struct{ submits, answers, resolves atomic.Int64 }
	tasks struct {
		sync.Mutex
		ids []int // every acked submit's task id
	}

	// feedback admits one feedback request at a time. The program folds
	// a resolve into the posteriors after it has journaled it and outside
	// the journal's lock, so two resolves in flight together can reach the
	// model in the other order than the journal's, and a restart that
	// replays the journal then rebuilds another model than the one that
	// was serving: the crash drill's digest check failed on about one run
	// in five when the sat clients' feedbacks overlapped. The benchmark
	// may not edit the program, so it keeps feedbacks apart and the check
	// strict; everything else of two scripts still overlaps.
	feedback sync.Mutex
}

func newSession(ctx context.Context, wl *workload, plat *platform, fl *fleet, seed int64, texts []string, tr *tracer) (*session, error) {
	s := &session{wl: wl, plat: plat, fl: fl, seed: seed, texts: texts, tr: tr}
	s.isOnline = make([]bool, len(plat.d.Workers))
	for _, id := range plat.online {
		s.isOnline[id] = true
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	if tr != nil {
		s.wire = &tracingTransport{rt: rt, tr: tr}
		rt = s.wire
	}
	s.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	if wl.shards > 1 {
		// Retries, breaker and retry budget off: a failed leg must fail
		// the op, not be papered over.
		r, err := crowdclient.NewRouter(ctx, fl.urls(), crowdclient.Options{
			HTTPClient: s.hc, Retries: -1, BreakerThreshold: -1, RetryBudget: -1,
		})
		if err != nil {
			return nil, err
		}
		s.router = r
	}
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedRequest sends one JSON request and returns the response body and
// the time from send to the body's last byte. Any status but want is an
// error. The live clients and the replay's loopback client both measure
// a request this way.
func timedRequest(ctx context.Context, hc *http.Client, method, url string, body []byte, want int) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != want {
		return nil, 0, fmt.Errorf("%s %s: %s, want %d: %s", method, url, resp.Status, want, bytes.TrimSpace(data))
	}
	return data, d, nil
}

func (s *session) post(ctx context.Context, url string, body []byte, want int) ([]byte, time.Duration, error) {
	return timedRequest(ctx, s.hc, http.MethodPost, url, body, want)
}

// submitRequests asks for the top-k crowd of every text.
func submitRequests(texts []string, k int) []crowddb.SubmitRequest {
	out := make([]crowddb.SubmitRequest, len(texts))
	for i, t := range texts {
		out[i] = crowddb.SubmitRequest{Text: t, K: k}
	}
	return out
}

// selectionsBody renders a selections request. Generated texts hold
// only letters, digits and spaces, so they need no JSON escaping.
func selectionsBody(texts []string, k int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for i, t := range texts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"text":"%s","k":%d}`, t, k)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// checkCrowd is the shape check on one selected crowd: k distinct
// online workers (all of them when fewer than k are online).
func (s *session) checkCrowd(workers []int, k int) error {
	want := k
	if n := len(s.plat.online); n < want {
		want = n
	}
	if len(workers) != want {
		return fmt.Errorf("crowd of %d, want %d", len(workers), want)
	}
	seen := make(map[int]struct{}, len(workers))
	for _, w := range workers {
		if w < 0 || w >= len(s.isOnline) || !s.isOnline[w] {
			return fmt.Errorf("worker %d is not online", w)
		}
		if _, dup := seen[w]; dup {
			return fmt.Errorf("worker %d selected twice", w)
		}
		seen[w] = struct{}{}
	}
	return nil
}

// selectCrowds asks the fleet, the way the workload's clients do, for
// the top-k crowd of every text, checks each crowd's shape, and returns
// the crowds and the request's latency.
func (s *session) selectCrowds(ctx context.Context, texts []string, k int) ([][]int, time.Duration, error) {
	var (
		resp crowddb.SelectionsResponse
		d    time.Duration
	)
	if s.router != nil {
		start := time.Now()
		var err error
		resp, err = s.router.Selections(ctx, submitRequests(texts, k))
		d = time.Since(start)
		if err != nil {
			return nil, 0, err
		}
	} else {
		data, lat, err := s.post(ctx, s.fl.nodes[0].url+"/api/v1/selections", selectionsBody(texts, k), http.StatusOK)
		if err != nil {
			return nil, 0, err
		}
		d = lat
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, 0, fmt.Errorf("selections response: %w", err)
		}
	}
	if len(resp.Results) != len(texts) {
		return nil, 0, fmt.Errorf("%d results for %d texts", len(resp.Results), len(texts))
	}
	crowds := make([][]int, len(texts))
	for i, r := range resp.Results {
		if err := s.checkCrowd(r.Workers, k); err != nil {
			return nil, 0, fmt.Errorf("text %d: %w", i, err)
		}
		crowds[i] = r.Workers
	}
	return crowds, d, nil
}

// opTexts is the slice of the pool op i selects for.
func (s *session) opTexts(i int64) []string {
	n := s.wl.textsPerOp
	out := make([]string, n)
	for j := range out {
		out[j] = s.texts[(int(i)*n+j)%len(s.texts)]
	}
	return out
}

// opLog is what one client saw: latencies in milliseconds of whole ops
// and of their selection and mutation requests, and when each op
// completed.
type opLog struct {
	sent, failed  int
	ops, sel, mut []float64
	done          []time.Duration
	err           error // the first failure
}

func (l *opLog) merge(o opLog) {
	l.sent += o.sent
	l.failed += o.failed
	l.ops = append(l.ops, o.ops...)
	l.sel = append(l.sel, o.sel...)
	l.mut = append(l.mut, o.mut...)
	l.done = append(l.done, o.done...)
	if l.err == nil {
		l.err = o.err
	}
}

// op runs op i of the stream and returns its latency: a selection
// request's send to last byte, a router call's duration, or a script's
// first send to last byte.
func (s *session) op(ctx context.Context, i int64, lg *opLog) (time.Duration, error) {
	if s.tr != nil {
		id := s.tr.begin("client.op", i, 0)
		defer s.tr.end(id)
		ctx = withOp(ctx, opRef{op: i, parent: id})
	}
	if s.wl.lifecycle {
		return s.script(ctx, i, lg)
	}
	_, d, err := s.selectCrowds(ctx, s.opTexts(i), selectK)
	if err == nil {
		lg.sel = append(lg.sel, ms(d))
	}
	return d, err
}

// mix is splitmix64 over (seed, op, slot): the feedback scores of a
// script depend on nothing else, so concurrent clients do not change
// the inputs.
func mix(seed, op int64, slot int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op)*0xbf58476d1ce4e5b9 + uint64(slot)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func submitBody(taskText string) []byte {
	return []byte(fmt.Sprintf(`{"text":"%s","k":%d}`, taskText, submitK))
}

func answerBody(worker int) []byte {
	return []byte(fmt.Sprintf(`{"worker":%d,"answer":"a fixed answer text of forty-one bytes"}`, worker))
}

// feedbackBody scores each answerer of op with a thumbs-up count from 0
// to 5.
func feedbackBody(workers []int, seed, op int64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"scores":{`)
	for j, w := range workers {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%d":%d`, w, mix(seed, op, j)%6)
	}
	b.WriteString(`}}`)
	return b.Bytes()
}

// script is the lifecycle op: submit a task, collect an answer from
// each assigned worker, resolve it with thumbs-up feedback, then five
// single-text selections that meet the cache the feedback just
// invalidated.
func (s *session) script(ctx context.Context, i int64, lg *opLog) (time.Duration, error) {
	base := s.fl.nodes[0].url
	taskText := s.texts[int(i)%len(s.texts)]
	start := time.Now()

	data, d, err := s.post(ctx, base+"/api/v1/tasks", submitBody(taskText), http.StatusCreated)
	if err != nil {
		return 0, err
	}
	lg.mut = append(lg.mut, ms(d))
	var sub crowddb.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return 0, fmt.Errorf("submit response: %w", err)
	}
	if err := s.checkCrowd(sub.Workers, submitK); err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	s.acked.submits.Add(1)
	s.tasks.Lock()
	s.tasks.ids = append(s.tasks.ids, sub.TaskID)
	s.tasks.Unlock()

	taskURL := base + "/api/v1/tasks/" + strconv.Itoa(sub.TaskID)
	for _, w := range sub.Workers {
		if _, d, err = s.post(ctx, taskURL+"/answers", answerBody(w), http.StatusNoContent); err != nil {
			return 0, err
		}
		lg.mut = append(lg.mut, ms(d))
		s.acked.answers.Add(1)
	}
	s.feedback.Lock()
	_, d, err = s.post(ctx, taskURL+"/feedback", feedbackBody(sub.Workers, s.seed, i), http.StatusOK)
	s.feedback.Unlock()
	if err != nil {
		return 0, err
	}
	lg.mut = append(lg.mut, ms(d))
	s.acked.resolves.Add(1)

	for j := 0; j < 5; j++ {
		t := s.texts[(int(i)*5+j)%len(s.texts)]
		if _, d, err = s.selectCrowds(ctx, []string{t}, selectK); err != nil {
			return 0, err
		}
		lg.sel = append(lg.sel, ms(d))
	}
	return time.Since(start), nil
}

// maxFailures stops a phase that is only producing errors, such as one
// whose server has died.
const maxFailures = 50

// client runs ops of the stream, closed loop, until more returns false.
func (s *session) client(ctx context.Context, phaseStart time.Time, more func(done int) bool) opLog {
	var lg opLog
	for more(lg.sent) && lg.failed < maxFailures && ctx.Err() == nil {
		i := s.next.Add(1) - 1
		lg.sent++
		d, err := s.op(ctx, i, &lg)
		if err != nil {
			lg.failed++
			if lg.err == nil {
				lg.err = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		lg.ops = append(lg.ops, ms(d))
		lg.done = append(lg.done, time.Since(phaseStart))
	}
	return lg
}

// phase is one measured stretch of traffic.
type phase struct {
	opLog
	wall time.Duration
}

// seqSpeedReadings is how many kernel runs are spread over the seq
// phase, between ops, while the server is idle anyway.
const seqSpeedReadings = 30

// fixedWork sends exactly n ops from one waiting client. With a meter,
// it reads the host's speed at even intervals between ops.
func (s *session) fixedWork(ctx context.Context, n int, meter *speedMeter) phase {
	every := n/seqSpeedReadings + 1
	start := time.Now()
	lg := s.client(ctx, start, func(done int) bool {
		if meter != nil && done%every == 0 {
			meter.tick(1)
		}
		return done < n
	})
	return phase{opLog: lg, wall: time.Since(start)}
}

// fixedTime keeps the given number of waiting clients busy for d. An op
// in flight when d ends is completed and counted as sent, but not in
// the window's rate.
func (s *session) fixedTime(ctx context.Context, clients int, d time.Duration) phase {
	start := time.Now()
	logs := make([]opLog, clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = s.client(ctx, start, func(int) bool { return time.Since(start) < d })
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, lg := range logs {
		p.merge(lg)
	}
	return p
}

// setPresence switches the platform's offline subset offline, each
// worker at the node that owns it.
func (s *session) setPresence(ctx context.Context) error {
	for _, id := range s.plat.offline {
		if s.router != nil {
			if err := s.router.SetPresence(ctx, id, false); err != nil {
				return fmt.Errorf("presence of worker %d: %w", id, err)
			}
			continue
		}
		url := fmt.Sprintf("%s/api/v1/workers/%d/presence", s.fl.nodes[0].url, id)
		if _, _, err := s.post(ctx, url, []byte(`{"online":false}`), http.StatusNoContent); err != nil {
			return err
		}
	}
	return nil
}

// verifyTraffic is the pass before any measured op. It asks for a crowd
// as large as the whole roster and insists on exactly the intended
// online set; then it sends the first ops of the stream — 256
// selections — and compares every crowd with the in-process reference:
// the model the node checkpointed at boot, ranking the same online set
// for the same text. On a sharded fleet that is the fleet ≡ single-node
// contract. No feedback has been sent yet, so the boot checkpoint is
// the serving model.
func (s *session) verifyTraffic(ctx context.Context, ref *core.Model) error {
	all, _, err := s.selectCrowds(ctx, s.texts[:1], len(s.plat.d.Workers))
	if err != nil {
		return fmt.Errorf("online-set probe: %w", err)
	}
	if len(all[0]) != len(s.plat.online) {
		return fmt.Errorf("online-set probe: %d workers ranked, %d intended online", len(all[0]), len(s.plat.online))
	}
	// checkCrowd has shown them distinct and online, so equal size is equality.

	for c := 0; c < s.wl.checkOps(); c++ {
		i := s.next.Add(1) - 1
		texts := s.opTexts(i)
		crowds, _, err := s.selectCrowds(ctx, texts, selectK)
		if err != nil {
			return fmt.Errorf("reference check, op %d: %w", i, err)
		}
		for j, t := range texts {
			bag := text.NewBagKnown(s.plat.d.Vocab, text.Tokenize(t))
			want := ref.SelectForTask(bag, s.plat.online, selectK, nil)
			if !slices.Equal(crowds[j], want) {
				return fmt.Errorf("reference check, op %d text %d: fleet selected %v, reference %v", i, j, crowds[j], want)
			}
		}
	}
	return nil
}

// fleetStats sums GET /api/v1/stats over the nodes.
func (s *session) fleetStats() (crowddb.StatsResponse, error) {
	var sum crowddb.StatsResponse
	for _, n := range s.fl.nodes {
		var st crowddb.StatsResponse
		if err := getJSON(n.url, "/api/v1/stats", &st); err != nil {
			return sum, err
		}
		sum.Tasks += st.Tasks
		sum.Open += st.Open
		sum.Assigned += st.Assigned
		sum.Resolved += st.Resolved
		sum.Online += st.Online
		sum.Workers += st.Workers
	}
	return sum, nil
}

// verifyStore checks, after the last phase, that the store holds
// exactly what was acknowledged: every submit a task, every resolve a
// resolved task, and on a sample of tasks every answer.
func (s *session) verifyStore() error {
	st, err := s.fleetStats()
	if err != nil {
		return err
	}
	submits, answers, resolves := s.acked.submits.Load(), s.acked.answers.Load(), s.acked.resolves.Load()
	if int64(st.Tasks) != submits || int64(st.Resolved) != resolves || int64(st.Assigned) != submits-resolves || st.Open != 0 {
		return fmt.Errorf("stats %+v do not match %d acked submits and %d acked resolves", st, submits, resolves)
	}
	if answers != submits*submitK {
		return fmt.Errorf("%d acked answers for %d submits", answers, submits)
	}
	s.tasks.Lock()
	ids := s.tasks.ids
	s.tasks.Unlock()
	step := len(ids)/16 + 1
	for i := 0; i < len(ids); i += step {
		var rec crowddb.TaskRecord
		if err := getJSON(s.fl.nodes[0].url, fmt.Sprintf("/api/v1/tasks/%d", ids[i]), &rec); err != nil {
			return err
		}
		if rec.Status != crowddb.TaskResolved || len(rec.Answers) != submitK {
			return fmt.Errorf("task %d: status %v with %d answers, want resolved with %d", rec.ID, rec.Status, len(rec.Answers), submitK)
		}
	}
	return nil
}

// nodeState is what must survive a crash: the counters and the
// integrity digest.
type nodeState struct {
	stats  crowddb.StatsResponse
	digest crowddb.DigestCut
}

func readNodeState(n *node) (nodeState, error) {
	var st nodeState
	if err := getJSON(n.url, "/api/v1/stats", &st.stats); err != nil {
		return st, err
	}
	err := getJSON(n.url, "/api/v1/digest", &st.digest)
	return st, err
}

// crashDrill SIGKILLs every node, restarts it on its data directory and
// insists that counters and digest are what they were. Every
// acknowledged mutation was fsynced (-sync always), so nothing may be
// lost. It returns how long the restart took to become ready.
func (s *session) crashDrill(ctx context.Context) (time.Duration, error) {
	before := make([]nodeState, len(s.fl.nodes))
	for i, n := range s.fl.nodes {
		var err error
		if before[i], err = readNodeState(n); err != nil {
			return 0, err
		}
	}
	s.fl.killAll()
	recovery, err := s.fl.boot(ctx)
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	for i, n := range s.fl.nodes {
		after, err := readNodeState(n)
		if err != nil {
			return 0, err
		}
		if after != before[i] {
			return 0, fmt.Errorf("node %d after SIGKILL and restart: %+v, before: %+v", i, after, before[i])
		}
	}
	return recovery, nil
}
