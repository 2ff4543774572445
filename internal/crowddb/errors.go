package crowddb

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"crowdselect/internal/core"
)

// ErrNotPrimary refuses a write sent to a read replica.
var ErrNotPrimary = errors.New("crowddb: not the primary")

// ErrBackupGone refuses an incremental backup whose base was compacted
// away on the source: the position was valid once and is permanently
// unservable now, so the caller takes a full backup instead.
var ErrBackupGone = errors.New("crowddb: backup base compacted away")

// The typed errors of the rows no caller outside this package tests for.
var (
	errForbidden        = errors.New("crowddb: fleet token required")
	errUnknownTenant    = errors.New("crowddb: unknown tenant")
	errMethodNotAllowed = errors.New("crowddb: method not allowed")
	errOverCapacity     = errors.New("crowddb: over capacity")
	errTenantQuota      = errors.New("crowddb: tenant over its quota")
	errClientClosed     = errors.New("crowddb: client closed request")
	errNotImplemented   = errors.New("crowddb: not implemented")
	errDeadline         = errors.New("crowddb: server deadline exceeded")
	errUnavailable      = errors.New("crowddb: unavailable")
	errInternal         = errors.New("crowddb: internal error")
	errReplicaStream    = refuse(ErrNotPrimary, "a replica does not serve the replication stream; connect to the primary")
)

// ErrorRow is one row of the error table.
type ErrorRow struct {
	Err    error  // the typed error the refusal is (errors.Is), in server and client
	Status int    // the HTTP status it is answered with
	Code   string // the envelope's stable machine-readable code
	Doc    string // when it is answered
}

// errorTable is the error envelope's taxonomy, declared once (DESIGN
// §8): writeErr answers a refusal with the first row whose typed error
// it is, and anything no row names with internal, the last row;
// ErrorFor reads a response back to its row's typed error, for
// crowdclient.APIError and the replica's stream dial; the README's list
// of codes is its rendering. The last row of a status is the status's
// default, which a response without an envelope reads as. 499 is
// nginx's status for a client gone away; net/http has no name for it.
var errorTable = []ErrorRow{
	{ErrBadRequest, http.StatusBadRequest, "bad_request", "a malformed request: bad JSON, a missing or invalid field, a task in the wrong state for the operation"},
	{errForbidden, http.StatusForbidden, "forbidden", "a fleet-control request (`/api/v1/replication/*`, `/api/v1/backup`) without the node's `-fleet-token`"},
	{errUnknownTenant, http.StatusNotFound, "unknown_tenant", "the `/api/v1/t/{tenant}/...` prefix names a tenant this node does not host"},
	{ErrNotFound, http.StatusNotFound, "not_found", "no such task, worker or route"},
	{errMethodNotAllowed, http.StatusMethodNotAllowed, "method_not_allowed", "the route does not answer this method; the `Allow` header names those it does"},
	{ErrStaleEpoch, http.StatusConflict, "stale_epoch", "a topology install with an epoch older than the current one"},
	{ErrFenced, http.StatusConflict, "fenced", "a mutation sent to a node sealed by a higher fencing epoch or a lapsed supervisor lease; follow the `X-Crowdd-Primary` header"},
	{ErrPromotionInProgress, http.StatusConflict, "promotion_in_progress", "a concurrent promotion already holds the node; retry after it finishes"},
	{core.ErrCategoryVersion, http.StatusConflict, "category_mismatch", "a selections request carried categories projected under category parameters other than this node's; send the texts instead"},
	{ErrReplicaDiverged, http.StatusConflict, "replica_diverged", "a follower or an incremental backup asked to resume ahead of the primary or from another history, or a promotion was attempted on a follower quarantined by a digest mismatch (its automatic re-bootstrap clears the flag)"},
	{ErrBackupGone, http.StatusGone, "backup_gone", "an incremental backup's base was compacted away on the source; take a full backup"},
	{ErrFrameTooLarge, http.StatusRequestEntityTooLarge, "request_too_large", "a POST body over `-max-body`, or a record over the journal's frame cap"},
	{ErrWrongShard, http.StatusMisdirectedRequest, "wrong_shard", "a request addressing a task or worker another shard owns (any `/tasks/{id}` or `/workers/{id}` route, or skill feedback for a foreign worker); the `X-Crowdd-Shard-Owner`/`X-Crowdd-Shard-Owner-URL` headers name the owner"},
	{errReplicaStream, http.StatusServiceUnavailable, "not_primary", "a follower dialed a replica for the replication stream; connect to the primary"},
	{ErrNotPrimary, http.StatusMisdirectedRequest, "not_primary", "a mutation or query sent to a read replica; follow the `X-Crowdd-Primary` header"},
	{errTenantQuota, http.StatusTooManyRequests, "tenant_quota_exceeded", "the tenant is over its `-tenant-quota` in-flight budget; honor `Retry-After`"},
	{errOverCapacity, http.StatusTooManyRequests, "over_capacity", "shed by admission control; honor `Retry-After`"},
	{errClientClosed, 499, "client_closed_request", "the request's context was cancelled: the client went away"},
	{errNotImplemented, http.StatusNotImplemented, "not_implemented", "the node has no query engine, replication source or backup source"},
	{ErrDegraded, http.StatusServiceUnavailable, "degraded_read_only", "mutations sealed after a journal failure; reads and selections still serve"},
	{errDeadline, http.StatusServiceUnavailable, "deadline_exceeded", "the server-side deadline budget expired; retry after `Retry-After`"},
	{errUnavailable, http.StatusServiceUnavailable, "unavailable", "the node is not ready (booting or draining; `Retry-After`), or a transfer could not pin its generation"},
	{errInternal, http.StatusInternalServerError, "internal", "anything else, a handler panic included"},
}

// ErrorTable is the error envelope's taxonomy: the error table, in
// reference order.
func ErrorTable() []ErrorRow { return slices.Clone(errorTable) }

// ErrorTableMarkdown renders the list of error codes embedded in the
// README between the error-table markers; `make readme-api` (or the
// failing test) says when the README is stale.
func ErrorTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| Status | Code | Answered when |\n|---|---|---|\n")
	for _, row := range ErrorTable() {
		fmt.Fprintf(&b, "| %d | `%s` | %s |\n", row.Status, row.Code, row.Doc)
	}
	return b.String()
}

// ErrorFor is the typed error of a refusal read off the wire: the row's
// with status and code, or, for a response without an envelope (code
// ""), the status's default row's; nil when the table has no such row.
func ErrorFor(status int, code string) error {
	var err error
	for _, row := range errorTable {
		switch {
		case row.Status != status:
		case row.Code == code:
			return row.Err
		case code == "":
			err = row.Err
		}
	}
	return err
}

// kindErr is a refusal of kind with a message of its own: errors.Is
// finds kind, and the envelope carries msg alone.
type kindErr struct {
	kind error
	msg  string
}

func (e *kindErr) Error() string { return e.msg }
func (e *kindErr) Unwrap() error { return e.kind }

// refuse is the refusal of kind with the formatted message.
func refuse(kind error, format string, args ...any) error {
	return &kindErr{kind, fmt.Sprintf(format, args...)}
}

// writeErr answers err with the envelope of its row. A context error is
// the client's departure (499) unless the server's own deadline budget
// fired while the client was still there: then it is 503
// deadline_exceeded with Retry-After, since retrying is correct. r is
// read only for a context error.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		kind := errClientClosed
		if serverDeadlineFired(r.Context()) {
			kind = errDeadline
			w.Header().Set("Retry-After", "1")
		}
		err = &kindErr{kind, err.Error()}
	}
	row := errorTable[len(errorTable)-1]
	for _, rw := range errorTable {
		if errors.Is(err, rw.Err) {
			row = rw
			break
		}
	}
	writeJSON(w, row.Status, ErrorEnvelope{Error: ErrorBody{Code: row.Code, Message: err.Error()}})
}

// ErrorBody is the payload of the error envelope every non-2xx
// response carries: a stable machine-readable code plus human-readable
// detail.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON shape of every non-2xx response:
// {"error": {"code": "...", "message": "..."}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}
