// Command crowdctl is the command-line client for the crowdd HTTP
// service (the crowd manager of Figure 1). It is a thin shell over
// the crowdclient package, which owns the transport policy: per-
// request timeouts and bounded retries with exponential backoff plus
// jitter — connection errors always (for POSTs only when the dial
// failed, so a mutation is never sent twice), and 5xx responses on
// idempotent requests: GETs and pure selections.
//
// Usage:
//
//	crowdctl [-addr http://localhost:8080] [-tenant name] submit -text "..." [-k 3]
//	crowdctl [-addr ...]                  batch     [-k 3] "text 1" "text 2" ...
//	crowdctl [-addr ...]                  answer    -task 1 -worker 2 -text "..."
//	crowdctl [-addr ...]                  feedback  -task 1 -scores "2=4,7=1"
//	crowdctl [-addr ...]                  task      -id 1
//	crowdctl [-addr ...]                  worker    -id 2
//	crowdctl [-addr ...]                  presence  -id 2 -online=false
//	crowdctl [-addr ...]                  query     -q "SELECT ..."
//	crowdctl [-addr ...]                  stats
//	crowdctl [-addr ...]                  digest
//	crowdctl [-addr ... -tenant t]        verify    -nodes http://a:8080,http://b:8081
//	crowdctl [-addr ... -tenant t]        backup    -o crowd.backup [-since N -history <id>] [-resumes 5]
//	crowdctl                              restore   -dir /var/lib/crowdd-restored [-to-seq N] crowd.backup [more.backup ...]
//	crowdctl                              verify-backup [-scratch dir] crowd.backup [more.backup ...]
//	crowdctl [-addr ...]                  promote
//	crowdctl [-addr ...]                  topology [-push layout.json]
//	crowdctl                              supervise -fleet fleet.json [-admin :9321] [-probe-interval 500ms] [-suspect-after 3] [-lease 1s]
//	crowdctl                              drain     -supervisor http://localhost:9321 -node http://localhost:8081
//	crowdctl [-addr ...]                  fence     -history <id> -epoch <n> [-new-primary url]
//
// Exit codes are uniform across subcommands: 0 on success, 1 when a
// check the command ran found a violation (a verify sweep that caught
// divergence, a verify-backup or restore that refused a damaged
// archive), 2 on usage or transport errors (bad flags, unreachable
// nodes, server refusals). The global -timeout flag bounds every
// individual request a subcommand makes; backup streams are exempt
// (a bulk transfer takes as long as it takes — interrupt and resume
// instead).
//
// backup streams GET /api/v1/backup into -o: a consistent, digest-
// stamped archive of the addressed node (DESIGN §15). The default is a
// full backup; -since N -history H appends an incremental segment of
// the records after seq N to an existing archive. A stream cut mid-
// transfer resumes automatically from the last complete record (up to
// -resumes times); a resume whose base the source has compacted away
// restarts as a full backup once. restore materializes an archive
// chain as a fresh data directory crowdd can boot from (-to-seq stops
// the replay early: point-in-time restore). verify-backup proves an
// archive offline — every CRC, the segment grammar, and a booted
// restore whose digest must match the manifest stamp — without a node.
//
// promote asks the addressed node to become the primary — the failover
// step after the old primary dies: point -addr at a caught-up replica
// and it seals its stream, replays to its journal tail, and starts
// accepting mutations. The printed status shows the new role.
//
// digest prints the addressed node's integrity digest cut (DESIGN
// §14). verify sweeps a fleet: it fetches every node's digest and
// readiness, then checks that nodes of the same tenant at the same
// applied position report the same digest and that no node is
// diverged or sitting on a failed scrub — exiting non-zero on any
// violation, so it slots into cron and CI as an anti-entropy audit.
//
// supervise runs the self-healing fleet supervisor (DESIGN §12): it
// probes every declared node, keeps the primary under a mutation
// lease, and on a dead primary auto-promotes the most caught-up
// standby, fences the loser, and pushes the new topology. drain asks a
// running supervisor to hand a node's duties off for maintenance.
// fence manually seals one node at a fencing epoch — the break-glass
// path when no supervisor is running.
//
// The global -tenant flag scopes every data command (submit, batch,
// answer, feedback, task, worker, presence, query, stats) to a named
// tenant on a multi-tenant crowdd (-tenants): requests are sent under
// /api/v1/t/{tenant}/. Empty or "default" addresses the un-prefixed
// default namespace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/fleet"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "crowdd base URL")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	retries := flag.Int("retries", 3, "max retries for transient failures")
	backoff := flag.Duration("retry-backoff", 200*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
	fleetToken := flag.String("fleet-token", "", "bearer token for nodes gating their fleet-control surface (crowdd -fleet-token)")
	tenant := flag.String("tenant", "", "tenant namespace to address; requests go to /api/v1/t/{tenant}/... (empty or \"default\" = un-prefixed API)")
	flag.Parse()
	cli := crowdclient.New(*addr, crowdclient.Options{
		Timeout:    *timeout,
		Retries:    *retries,
		Backoff:    *backoff,
		FleetToken: *fleetToken,
		Tenant:     *tenant,
	})
	if err := run(cli, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdctl:", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes (documented in the package comment and the README): 0
// success, 1 a check found a violation, 2 usage or transport errors.
const (
	exitOK          = 0
	exitCheckFailed = 1
	exitUsage       = 2
)

// checkFailedError marks an error as "the check this command ran found
// a violation" — the command worked, the state it examined did not. It
// maps to exit code 1 where everything else maps to 2.
type checkFailedError struct{ err error }

func (e *checkFailedError) Error() string { return e.err.Error() }
func (e *checkFailedError) Unwrap() error { return e.err }

// checkFailed wraps err as a check violation.
func checkFailed(err error) error { return &checkFailedError{err: err} }

// asCheckErr reclassifies archive refusals as check violations: a
// damaged or lying backup is what verify-backup and restore exist to
// catch, not a transport failure. Everything else passes through.
func asCheckErr(err error) error {
	if err == nil {
		return nil
	}
	for _, sentinel := range []error{
		crowddb.ErrArchiveTruncated, crowddb.ErrArchiveReordered,
		crowddb.ErrArchiveCorrupt, crowddb.ErrBackupDigestMismatch,
	} {
		if errors.Is(err, sentinel) {
			return checkFailed(err)
		}
	}
	return err
}

// exitCode maps run's error to the documented exit codes.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var cf *checkFailedError
	if errors.As(err, &cf) {
		return exitCheckFailed
	}
	return exitUsage
}

func run(cli *crowdclient.Client, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (submit, batch, answer, feedback, task, worker, presence, query, stats, digest, verify, backup, restore, verify-backup, promote, topology, supervise, drain, fence)")
	}
	ctx := context.Background()
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ContinueOnError)
		text := fs.String("text", "", "task text")
		k := fs.Int("k", 0, "crowd size (0 = server default)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *text == "" {
			return fmt.Errorf("submit: -text is required")
		}
		sub, err := cli.SubmitTask(ctx, *text, *k)
		if err != nil {
			return err
		}
		return printJSON(out, sub)
	case "batch":
		fs := flag.NewFlagSet("batch", flag.ContinueOnError)
		k := fs.Int("k", 0, "crowd size per task (0 = server default)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		texts := fs.Args()
		if len(texts) == 0 {
			return fmt.Errorf("batch: pass one or more task texts as arguments")
		}
		reqs := make([]crowddb.SubmitRequest, len(texts))
		for i, text := range texts {
			reqs[i] = crowddb.SubmitRequest{Text: text, K: *k}
		}
		subs, err := cli.SubmitBatch(ctx, reqs)
		if err != nil {
			return err
		}
		return printJSON(out, subs)
	case "answer":
		fs := flag.NewFlagSet("answer", flag.ContinueOnError)
		task := fs.Int("task", -1, "task id")
		worker := fs.Int("worker", -1, "worker id")
		text := fs.String("text", "", "answer text")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *task < 0 || *worker < 0 {
			return fmt.Errorf("answer: -task and -worker are required")
		}
		if err := cli.Answer(ctx, *task, *worker, *text); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil
	case "feedback":
		fs := flag.NewFlagSet("feedback", flag.ContinueOnError)
		task := fs.Int("task", -1, "task id")
		scores := fs.String("scores", "", "worker=score pairs, comma separated")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *task < 0 {
			return fmt.Errorf("feedback: -task is required")
		}
		parsed, err := parseScores(*scores)
		if err != nil {
			return err
		}
		rec, err := cli.Feedback(ctx, *task, parsed)
		if err != nil {
			return err
		}
		return printJSON(out, rec)
	case "task":
		fs := flag.NewFlagSet("task", flag.ContinueOnError)
		id := fs.Int("id", -1, "task id")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id < 0 {
			return fmt.Errorf("task: -id is required")
		}
		task, err := cli.GetTask(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(out, task)
	case "worker":
		fs := flag.NewFlagSet("worker", flag.ContinueOnError)
		id := fs.Int("id", -1, "worker id")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id < 0 {
			return fmt.Errorf("worker: -id is required")
		}
		w, err := cli.GetWorker(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(out, w)
	case "presence":
		fs := flag.NewFlagSet("presence", flag.ContinueOnError)
		id := fs.Int("id", -1, "worker id")
		online := fs.Bool("online", true, "online flag")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id < 0 {
			return fmt.Errorf("presence: -id is required")
		}
		if err := cli.SetPresence(ctx, *id, *online); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil
	case "query":
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		q := fs.String("q", "", "crowdql statement, e.g. \"SELECT CROWD FOR TASK '...' LIMIT 3\"")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if strings.TrimSpace(*q) == "" {
			return fmt.Errorf("query: -q is required")
		}
		res, err := cli.Query(ctx, *q)
		if err != nil {
			return err
		}
		return printRaw(out, res)
	case "stats":
		st, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "digest":
		cut, err := cli.Digest(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, cut)
	case "verify":
		return runVerify(ctx, rest, out)
	case "backup":
		return runBackup(ctx, cli, rest, out)
	case "restore":
		return runRestore(rest, out)
	case "verify-backup":
		return runVerifyBackup(rest, out)
	case "promote":
		st, err := cli.Promote(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "supervise":
		return runSupervise(rest, out)
	case "drain":
		return runDrain(ctx, rest, out)
	case "fence":
		fs := flag.NewFlagSet("fence", flag.ContinueOnError)
		history := fs.String("history", "", "history id the epoch belongs to (from /readyz)")
		epoch := fs.Uint64("epoch", 0, "fencing epoch to impose (must exceed the node's own)")
		newPrimary := fs.String("new-primary", "", "base URL of the node that now leads (advertised in refusals)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *history == "" || *epoch == 0 {
			return fmt.Errorf("fence: -history and -epoch are required")
		}
		resp, err := cli.FenceNode(ctx, *history, *epoch, *newPrimary)
		if err != nil {
			return err
		}
		return printJSON(out, resp)
	case "topology":
		fs := flag.NewFlagSet("topology", flag.ContinueOnError)
		file := fs.String("push", "", "path to a topology JSON document to install (empty = print the node's current layout)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *file == "" {
			doc, err := cli.Topology(ctx)
			if err != nil {
				return err
			}
			return printJSON(out, doc)
		}
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var doc crowddb.Topology
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("topology document: %w", err)
		}
		installed, err := cli.PushTopology(ctx, doc)
		if err != nil {
			return err
		}
		return printJSON(out, installed)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// runSupervise loads the declared fleet and supervises it until a
// signal arrives. The admin listener (when enabled) serves GET /status
// and POST /drain for the drain subcommand.
func runSupervise(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("supervise", flag.ContinueOnError)
	fleetFile := fs.String("fleet", "", "path to the fleet spec JSON ({\"shards\": [{\"shard\": 0, \"primary\": {\"url\": ...}, \"standbys\": [...]}]})")
	admin := fs.String("admin", "127.0.0.1:9321", "admin listen address for /status and /drain (empty = no admin listener)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "probe cadence")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe timeout (0 = probe interval)")
	suspectAfter := fs.Int("suspect-after", 3, "consecutive missed primary probes before failover")
	lease := fs.Duration("lease", 0, "mutation lease TTL (0 = 3/4 of suspect-after × probe-interval; must stay below that product)")
	holder := fs.String("holder", "", "lease holder name (default crowdctl-supervise)")
	fleetToken := fs.String("fleet-token", "", "bearer token for nodes gating their fleet-control surface (crowdd -fleet-token)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetFile == "" {
		return fmt.Errorf("supervise: -fleet is required")
	}
	raw, err := os.ReadFile(*fleetFile)
	if err != nil {
		return err
	}
	var spec fleet.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("fleet spec: %w", err)
	}
	sup, err := fleet.New(spec, fleet.Options{
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		SuspectAfter:  *suspectAfter,
		LeaseTTL:      *lease,
		Holder:        *holder,
		FleetToken:    *fleetToken,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *admin != "" {
		srv := &http.Server{Addr: *admin, Handler: sup.AdminHandler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "crowdctl: admin listener:", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "supervising %d shard(s); admin on http://%s\n", len(spec.Shards), *admin)
	} else {
		fmt.Fprintf(out, "supervising %d shard(s)\n", len(spec.Shards))
	}
	if err := sup.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// verifyRow is one node's line in the `crowdctl verify` report.
type verifyRow struct {
	URL        string `json:"url"`
	Role       string `json:"role,omitempty"`
	Mode       string `json:"mode,omitempty"`
	Seq        int64  `json:"seq"`
	Digest     string `json:"digest,omitempty"`
	Diverged   bool   `json:"diverged,omitempty"`
	ScrubFail  bool   `json:"scrub_failed,omitempty"`
	Err        string `json:"error,omitempty"`
	lastScrubE string
}

// runVerify sweeps the fleet's digests (DESIGN §14): every node of
// the same tenant at the same applied position must report the same
// digest. Unreachable nodes, self-reported divergence and failed
// scrubs all fail the sweep.
func runVerify(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	nodes := fs.String("nodes", "", "comma-separated base URLs of the nodes to sweep")
	tenant := fs.String("tenant", "", "tenant namespace to verify (empty or \"default\" = un-prefixed API)")
	fleetToken := fs.String("fleet-token", "", "bearer token for nodes gating their fleet-control surface")
	timeout := fs.Duration("timeout", 5*time.Second, "per-node request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := strings.Split(*nodes, ",")
	var clean []string
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, u)
		}
	}
	if len(clean) == 0 {
		return fmt.Errorf("verify: -nodes is required (comma-separated base URLs)")
	}
	rows := make([]verifyRow, len(clean))
	for i, u := range clean {
		cli := crowdclient.New(u, crowdclient.Options{
			Timeout: *timeout, Retries: 1, FleetToken: *fleetToken, Tenant: *tenant,
		})
		rows[i] = verifyNode(ctx, cli, u)
	}
	// The invariant: equal applied position ⇒ equal digest. Nodes at
	// different positions are lagging, not diverged — replication will
	// carry them forward and the next sweep can compare them.
	byType := make(map[int64]string)
	ok := true
	var problems []string
	for _, r := range rows {
		if r.Err != "" {
			ok = false
			problems = append(problems, fmt.Sprintf("%s: %s", r.URL, r.Err))
			continue
		}
		if r.Diverged {
			ok = false
			problems = append(problems, fmt.Sprintf("%s: reports itself diverged from its primary", r.URL))
		}
		if r.ScrubFail {
			ok = false
			problems = append(problems, fmt.Sprintf("%s: background scrub found at-rest corruption%s", r.URL, r.lastScrubE))
		}
		if want, seen := byType[r.Seq]; seen && want != r.Digest {
			ok = false
			problems = append(problems, fmt.Sprintf("%s: digest %.12s disagrees with %.12s at applied position %d", r.URL, r.Digest, want, r.Seq))
		} else if !seen {
			byType[r.Seq] = r.Digest
		}
	}
	report := struct {
		Tenant string      `json:"tenant"`
		OK     bool        `json:"ok"`
		Nodes  []verifyRow `json:"nodes"`
	}{Tenant: tenantLabel(*tenant), OK: ok, Nodes: rows}
	if err := printJSON(out, report); err != nil {
		return err
	}
	if !ok {
		return checkFailed(fmt.Errorf("verify: integrity sweep failed:\n  %s", strings.Join(problems, "\n  ")))
	}
	return nil
}

// runBackup streams one backup archive from the addressed node into
// -o, resuming from the last complete record when the stream dies
// mid-transfer. The file always holds a well-formed archive prefix
// (the client writes only whole validated frames), so a resume is a
// plain append of an incremental continuation segment.
func runBackup(ctx context.Context, cli *crowdclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("backup", flag.ContinueOnError)
	outFile := fs.String("o", "", "output archive file")
	since := fs.Int64("since", -1, "incremental: stream only the records after this seq, appended to an existing archive (-1 = full backup)")
	history := fs.String("history", "", "history id the -since position belongs to (required with -since; printed by a previous backup)")
	resumes := fs.Int("resumes", 5, "max automatic mid-stream resume attempts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outFile == "" {
		return fmt.Errorf("backup: -o is required")
	}
	if *since >= 0 && *history == "" {
		return fmt.Errorf("backup: -since needs -history (the archive's history id)")
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if *since >= 0 {
		// An incremental continues an existing archive in place.
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(*outFile, mode, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	cur, hist := *since, *history
	var (
		records, nbytes int64
		segments        int
		attempts        int
		restartedFull   bool
		last            crowddb.BackupStreamInfo
	)
	for {
		info, err := cli.Backup(ctx, f, cur, hist)
		records += info.Records
		nbytes += info.Bytes
		if info.HaveManifest {
			segments++
			last = info
		}
		if err == nil {
			break
		}
		if errors.Is(err, crowddb.ErrBackupGone) && !restartedFull {
			// The incremental base was compacted away on the source; the
			// only way forward is a fresh full archive.
			restartedFull = true
			fmt.Fprintf(out, "base seq %d compacted away on source; restarting as a full backup\n", cur)
			if err := f.Truncate(0); err != nil {
				return err
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return err
			}
			cur, hist = -1, ""
			records, nbytes, segments = 0, 0, 0
			continue
		}
		if !info.Resumable || attempts >= *resumes {
			return fmt.Errorf("backup: %w (archive %s holds a valid prefix through seq %d)", err, *outFile, info.LastSeq)
		}
		attempts++
		cur, hist = info.LastSeq, info.Manifest.History
		fmt.Fprintf(out, "stream interrupted after seq %d (%v); resuming %d/%d\n", cur, err, attempts, *resumes)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return printJSON(out, struct {
		File     string `json:"file"`
		Tenant   string `json:"tenant"`
		History  string `json:"history"`
		Full     bool   `json:"full"`
		Seq      int64  `json:"seq"`
		Records  int64  `json:"records"`
		Bytes    int64  `json:"bytes"`
		Segments int    `json:"segments"`
		Resumes  int    `json:"resumes,omitempty"`
		Digest   string `json:"digest,omitempty"`
	}{
		File: *outFile, Tenant: last.Manifest.Tenant, History: last.Manifest.History,
		Full: *since < 0 || restartedFull, Seq: last.LastSeq, Records: records,
		Bytes: nbytes, Segments: segments, Resumes: attempts, Digest: last.Manifest.Digest,
	})
}

// runRestore materializes an archive chain as a fresh data directory
// (crowddb.RestoreBackup): point -data-dir of a new crowdd at it and
// the ordinary boot-recovery path replays it to a node byte-identical
// to the source at the backup seq.
func runRestore(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	dir := fs.String("dir", "", "destination data directory (must not exist or be empty)")
	toSeq := fs.Int64("to-seq", 0, "point-in-time: replay only through this seq (0 = the whole archive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("restore: -dir is required")
	}
	archives := fs.Args()
	if len(archives) == 0 {
		return fmt.Errorf("restore: pass one full archive (plus incrementals, in order) as arguments")
	}
	res, err := crowddb.RestoreBackup(*dir, archives, crowddb.RestoreOptions{
		ToSeq: *toSeq,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, format+"\n", a...)
		},
	})
	if err != nil {
		return asCheckErr(fmt.Errorf("restore: %w", err))
	}
	return printJSON(out, res)
}

// runVerifyBackup proves an archive chain offline: CRCs, segment
// grammar, and — when the chain starts with a full segment — a restore
// booted exactly as crowdd would boot it, whose digest must match the
// manifest stamp. No running node is involved; exit 1 on any
// violation, down to a single flipped bit.
func runVerifyBackup(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify-backup", flag.ContinueOnError)
	scratch := fs.String("scratch", "", "directory the archive is restored into and booted from, kept afterwards (must not exist or be empty; empty = temp dir)")
	quiet := fs.Bool("q", false, "suppress progress notices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	archives := fs.Args()
	if len(archives) == 0 {
		return fmt.Errorf("verify-backup: pass one or more archive files as arguments")
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(out, format+"\n", a...)
	}
	if *quiet {
		logf = nil
	}
	rep, err := crowddb.VerifyBackup(archives, crowddb.VerifyBackupOptions{
		ScratchDir: *scratch,
		Logf:       logf,
	})
	if err != nil {
		return asCheckErr(fmt.Errorf("verify-backup: %w", err))
	}
	return printJSON(out, rep)
}

// verifyNode probes one node's readiness and digest.
func verifyNode(ctx context.Context, cli *crowdclient.Client, url string) verifyRow {
	row := verifyRow{URL: url}
	st, err := cli.ReadyStatus(ctx)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Role, row.Mode = st.Role, st.Mode
	if st.Replication != nil {
		row.Diverged = st.Replication.Diverged
	}
	if st.Integrity != nil {
		row.ScrubFail = st.Integrity.ScrubFailed
		if st.Integrity.LastError != "" {
			row.lastScrubE = ": " + st.Integrity.LastError
		}
	}
	cut, err := cli.Digest(ctx)
	if err != nil {
		row.Err = "digest: " + err.Error()
		return row
	}
	row.Seq, row.Digest = cut.Seq, cut.Digest
	return row
}

func tenantLabel(t string) string {
	if t == "" {
		return crowddb.DefaultTenant
	}
	return t
}

// runDrain asks a running supervisor (its admin listener) to drain a
// node and prints the resulting fleet status.
func runDrain(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("drain", flag.ContinueOnError)
	supervisor := fs.String("supervisor", "http://127.0.0.1:9321", "supervisor admin base URL")
	node := fs.String("node", "", "base URL of the node to drain")
	timeout := fs.Duration("timeout", 30*time.Second, "drain deadline (primary handoff promotes and re-points)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("drain: -node is required")
	}
	body, err := json.Marshal(map[string]string{"node": *node})
	if err != nil {
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodPost,
		strings.TrimRight(*supervisor, "/")+"/drain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain refused (%s): %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	return printRaw(out, payload)
}

// parseScores parses "2=4,7=1.5" into {2: 4, 7: 1.5}; a worker scored
// twice is refused, not settled by whichever score came last.
func parseScores(s string) (map[int]float64, error) {
	out := make(map[int]float64)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad score pair %q (want worker=score)", pair)
		}
		w, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad worker id %q", kv[0])
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad score %q", kv[1])
		}
		if _, dup := out[w]; dup {
			return nil, fmt.Errorf("worker %d scored twice", w)
		}
		out[w] = v
	}
	return out, nil
}

// printJSON renders a typed response as indented JSON.
func printJSON(out io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

// printRaw re-indents a raw JSON payload (falling back to verbatim
// output if it is not JSON).
func printRaw(out io.Writer, payload []byte) error {
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, payload, "", "  "); err != nil {
		_, werr := out.Write(payload)
		return werr
	}
	fmt.Fprintln(out, pretty.String())
	return nil
}
