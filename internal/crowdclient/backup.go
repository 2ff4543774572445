package crowdclient

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"crowdselect/internal/crowddb"
)

// Backup streams one backup archive segment (GET /api/v1/backup) into
// dst. since < 0 requests a full backup; since >= 0 requests an
// incremental segment of the records after that seq, and history (the
// archive's history id) is then required — the server refuses a
// foreign history rather than emitting an archive that cannot chain.
//
// Only whole, validated frames reach dst, so dst always holds a
// well-formed archive prefix however the stream ends. The returned
// info reports how far the stream got: on error, info.Resumable says
// whether appending a continuation (Backup with since=info.LastSeq)
// can complete the archive, and info.LastSeq is the resume point.
//
// The stream bypasses the client's retry/backoff machinery and
// per-request timeout: a backup is a long bulk transfer whose retry
// unit is the resume, driven by the caller. ctx bounds it.
func (c *Client) Backup(ctx context.Context, dst io.Writer, since int64, history string) (crowddb.BackupStreamInfo, error) {
	path := c.scopePath("/api/v1/backup")
	if since >= 0 {
		path += "?since=" + strconv.FormatInt(since, 10) + "&history=" + url.QueryEscape(history)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return crowddb.BackupStreamInfo{}, err
	}
	if c.fleetToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.fleetToken)
	}
	// A timeout-free twin of the configured client: same transport, no
	// overall deadline — the archive takes as long as it takes.
	hc := &http.Client{Transport: c.hc.Transport, CheckRedirect: c.hc.CheckRedirect, Jar: c.hc.Jar}
	resp, err := hc.Do(req)
	if err != nil {
		return crowddb.BackupStreamInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return crowddb.BackupStreamInfo{}, apiError(resp, body)
	}
	return crowddb.CopyBackupStream(dst, resp.Body)
}
