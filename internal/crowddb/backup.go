package crowddb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// Verifiable backup & disaster recovery (DESIGN.md §15). A backup is a
// self-describing archive of one node's state at an exact replication
// position, framed with the replication codec so every byte at rest is
// covered by the same per-frame CRC the wire uses. The archive is a
// sequence of segments; each segment opens with a manifest naming the
// cut it was taken under — (history, seq, digest), stamped from the
// same quiesced digest cut /api/v1/digest serves — and closes with a
// trailer proving the segment arrived whole. A full segment carries
// the generation's bootstrap (the dataset when the source has one, then
// the model checkpoint and the store snapshot, both required) followed
// by the journal records up to the cut; an
// incremental segment carries only records. Interrupted transfers
// resume by appending an incremental segment that chains exactly at
// the last record received, so one file can accumulate a full backup
// plus any number of continuations and still decode as a single
// consistent archive.

// backupFormatVersion versions the archive grammar. Decoders refuse
// manifests from a different format rather than guessing.
const backupFormatVersion = 1

// BackupManifest opens every archive segment: the identity of the cut
// the segment was taken under. BaseSeq is the position the segment
// continues from (the snapshot's position for a full segment, the
// resume point for an incremental one); Seq is the cut head the
// segment runs to; Digest and its components stamp the expected state
// at Seq so restore and offline verification can prove fidelity.
type BackupManifest struct {
	Format       int       `json:"format"`
	Tenant       string    `json:"tenant"`
	History      string    `json:"history"`
	Full         bool      `json:"full"`
	BaseSeq      int64     `json:"base_seq"`
	Seq          int64     `json:"seq"`
	Digest       string    `json:"digest,omitempty"`
	ModelDigest  string    `json:"model_digest,omitempty"`
	StoreDigest  string    `json:"store_digest,omitempty"`
	FencingEpoch uint64    `json:"fencing_epoch,omitempty"`
	Generation   uint64    `json:"generation,omitempty"`
	CreatedAt    time.Time `json:"created_at,omitempty"`
	// Arch is the source's runtime.GOARCH; restore and verification
	// refuse another architecture's archive with ErrArchMismatch.
	// Absent from archives that predate the stamp, which are accepted.
	Arch string `json:"arch,omitempty"`
	// Kernel is the source's core.KernelVersion; restore and
	// verification refuse another version's archive with
	// ErrKernelMismatch. Absent from archives cut before the stamp,
	// which were cut by kernel 1.
	Kernel int `json:"kernel,omitempty"`
	// Shard is the source's shard identity, absent when it ran
	// unsharded: the ownership filter and the task-id stride shape
	// replay, so verification boots the archive under it.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// BackupTrailer closes a segment. Seq must equal both the manifest's
// cut and the last record streamed; Records counts the segment's
// record frames. An archive whose final segment lacks a trailer is
// truncated by definition.
type BackupTrailer struct {
	Seq     int64 `json:"seq"`
	Records int64 `json:"records"`
}

// Typed archive refusals (DESIGN §15): every way an archive can be
// unusable maps to exactly one of these, wrapped in an *ArchiveError
// carrying the byte offset. Decoding never panics and never guesses.
var (
	// ErrArchiveTruncated: the archive ends mid-frame, mid-segment, or
	// before the final trailer.
	ErrArchiveTruncated = errors.New("crowddb: backup archive truncated")
	// ErrArchiveReordered: record sequence numbers skip, repeat, run
	// backwards, or a continuation segment does not chain at the
	// archive's tail.
	ErrArchiveReordered = errors.New("crowddb: backup archive reordered")
	// ErrArchiveCorrupt: a frame fails its CRC, a payload does not
	// decode, or the segment grammar is violated.
	ErrArchiveCorrupt = errors.New("crowddb: backup archive corrupt")
	// ErrBackupDigestMismatch: the archive decodes cleanly but replays
	// to a state whose digest differs from the manifest's stamp.
	ErrBackupDigestMismatch = errors.New("crowddb: backup digest mismatch")
)

// ArchiveError locates an archive refusal at a byte offset. Unwrap
// reaches the typed sentinel, so errors.Is(err, ErrArchiveTruncated)
// and friends classify it.
type ArchiveError struct {
	Offset int64
	Err    error
}

func (e *ArchiveError) Error() string {
	return fmt.Sprintf("crowddb: backup archive at byte offset %d: %v", e.Offset, e.Err)
}

func (e *ArchiveError) Unwrap() error { return e.Err }

func archiveErr(off int64, sentinel error, format string, args ...any) error {
	return &ArchiveError{Offset: off, Err: fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))}
}

// backupSink receives a validated archive's contents as they decode.
// Any nil callback is skipped; a callback error aborts the walk.
type backupSink struct {
	manifest func(m BackupManifest, segment int) error
	dataset  func(b []byte) error
	model    func(b []byte) error
	snapshot func(m replSnapshotMsg) error
	record   func(m replRecordMsg) error
}

// BackupArchiveInfo summarizes a fully validated archive.
type BackupArchiveInfo struct {
	Segments int            `json:"segments"`
	Records  int64          `json:"records"`
	BaseSeq  int64          `json:"base_seq"`
	Seq      int64          `json:"seq"`
	Full     bool           `json:"full"`
	History  string         `json:"history"`
	Tenant   string         `json:"tenant"`
	Manifest BackupManifest `json:"manifest"` // final segment's manifest
}

// backupWalker is the archive grammar as an incremental state
// machine: feed it one decoded frame at a time, then finish. The
// streaming copy (CopyBackupStream) and the offline decoders share it
// so wire validation and at-rest validation can never drift apart.
type backupWalker struct {
	sink backupSink

	segments  int
	records   int64
	lastSeq   int64
	haveFirst bool
	first     BackupManifest

	inSegment     bool
	closed        bool
	m             BackupManifest
	segRecords    int64
	sawDataset    bool
	sawModel      bool
	bootstrapDone bool // snapshot delivered (full) or not needed (incremental)
}

func (wk *backupWalker) feed(typ byte, payload []byte, off int64) error {
	switch typ {
	case frameBackupManifest:
		var m BackupManifest
		if err := json.Unmarshal(payload, &m); err != nil {
			return archiveErr(off, ErrArchiveCorrupt, "manifest does not decode: %v", err)
		}
		if m.Format != backupFormatVersion {
			return archiveErr(off, ErrArchiveCorrupt, "unsupported archive format %d (want %d)", m.Format, backupFormatVersion)
		}
		if m.History == "" {
			return archiveErr(off, ErrArchiveCorrupt, "manifest without a history id")
		}
		if m.Seq < m.BaseSeq {
			return archiveErr(off, ErrArchiveCorrupt, "manifest cut %d below its base %d", m.Seq, m.BaseSeq)
		}
		if wk.inSegment && !wk.closed && !wk.bootstrapDone {
			return archiveErr(off, ErrArchiveCorrupt, "segment interrupted during bootstrap cannot be continued")
		}
		if wk.haveFirst {
			if m.Full {
				return archiveErr(off, ErrArchiveCorrupt, "full segment after the first")
			}
			if m.History != wk.first.History {
				return archiveErr(off, ErrArchiveCorrupt, "continuation history %s does not match archive history %s", m.History, wk.first.History)
			}
			if m.Tenant != wk.first.Tenant {
				return archiveErr(off, ErrArchiveCorrupt, "continuation tenant %q does not match archive tenant %q", m.Tenant, wk.first.Tenant)
			}
			if m.BaseSeq != wk.lastSeq {
				return archiveErr(off, ErrArchiveReordered, "continuation base %d does not chain at archive tail %d", m.BaseSeq, wk.lastSeq)
			}
		} else {
			wk.first, wk.haveFirst = m, true
			wk.lastSeq = m.BaseSeq
		}
		wk.m = m
		wk.inSegment, wk.closed = true, false
		wk.segments++
		wk.segRecords = 0
		wk.sawDataset, wk.sawModel = false, false
		wk.bootstrapDone = !m.Full
		if wk.sink.manifest != nil {
			return wk.sink.manifest(m, wk.segments-1)
		}
		return nil

	case frameDataset:
		if !wk.inSegment || wk.closed || !wk.m.Full || wk.bootstrapDone || wk.sawDataset || wk.sawModel {
			return archiveErr(off, ErrArchiveCorrupt, "dataset frame outside a full segment's bootstrap")
		}
		wk.sawDataset = true
		if wk.sink.dataset != nil {
			return wk.sink.dataset(payload)
		}
		return nil

	case frameModel:
		if !wk.inSegment || wk.closed || !wk.m.Full || wk.bootstrapDone || wk.sawModel {
			return archiveErr(off, ErrArchiveCorrupt, "model frame outside a full segment's bootstrap")
		}
		wk.sawModel = true
		if wk.sink.model != nil {
			return wk.sink.model(payload)
		}
		return nil

	case frameSnapshot:
		if !wk.inSegment || wk.closed || !wk.m.Full || wk.bootstrapDone {
			return archiveErr(off, ErrArchiveCorrupt, "snapshot frame outside a full segment's bootstrap")
		}
		if !wk.sawModel {
			return archiveErr(off, ErrArchiveCorrupt, "full segment without a model checkpoint")
		}
		var sm replSnapshotMsg
		if err := json.Unmarshal(payload, &sm); err != nil {
			return archiveErr(off, ErrArchiveCorrupt, "snapshot frame does not decode: %v", err)
		}
		if sm.Seq != wk.m.BaseSeq {
			return archiveErr(off, ErrArchiveCorrupt, "snapshot at seq %d, manifest base %d", sm.Seq, wk.m.BaseSeq)
		}
		wk.bootstrapDone = true
		if wk.sink.snapshot != nil {
			return wk.sink.snapshot(sm)
		}
		return nil

	case frameRecord:
		if !wk.inSegment || wk.closed || !wk.bootstrapDone {
			return archiveErr(off, ErrArchiveCorrupt, "record frame outside a segment's record run")
		}
		var rm replRecordMsg
		if err := json.Unmarshal(payload, &rm); err != nil {
			return archiveErr(off, ErrArchiveCorrupt, "record frame does not decode: %v", err)
		}
		if rm.Seq != wk.lastSeq+1 {
			return archiveErr(off, ErrArchiveReordered, "record seq %d after %d", rm.Seq, wk.lastSeq)
		}
		if rm.Seq > wk.m.Seq {
			return archiveErr(off, ErrArchiveReordered, "record seq %d beyond the segment cut %d", rm.Seq, wk.m.Seq)
		}
		wk.lastSeq = rm.Seq
		wk.records++
		wk.segRecords++
		if wk.sink.record != nil {
			return wk.sink.record(rm)
		}
		return nil

	case frameBackupEnd:
		if !wk.inSegment || wk.closed || !wk.bootstrapDone {
			return archiveErr(off, ErrArchiveCorrupt, "trailer outside an open segment")
		}
		var tr BackupTrailer
		if err := json.Unmarshal(payload, &tr); err != nil {
			return archiveErr(off, ErrArchiveCorrupt, "trailer does not decode: %v", err)
		}
		if tr.Seq != wk.m.Seq {
			return archiveErr(off, ErrArchiveCorrupt, "trailer seq %d disagrees with manifest cut %d", tr.Seq, wk.m.Seq)
		}
		if wk.lastSeq != tr.Seq {
			return archiveErr(off, ErrArchiveTruncated, "segment records end at %d, trailer promises %d", wk.lastSeq, tr.Seq)
		}
		if tr.Records != wk.segRecords {
			return archiveErr(off, ErrArchiveCorrupt, "trailer counts %d records, segment carried %d", tr.Records, wk.segRecords)
		}
		wk.closed = true
		return nil

	default:
		return archiveErr(off, ErrArchiveCorrupt, "replication frame type 0x%02x in a backup archive", typ)
	}
}

func (wk *backupWalker) finish(off int64) error {
	if !wk.haveFirst {
		return archiveErr(off, ErrArchiveTruncated, "empty archive")
	}
	if !wk.closed {
		return archiveErr(off, ErrArchiveTruncated, "archive ends without a trailer (records through %d, cut at %d)", wk.lastSeq, wk.m.Seq)
	}
	return nil
}

func (wk *backupWalker) info() *BackupArchiveInfo {
	return &BackupArchiveInfo{
		Segments: wk.segments,
		Records:  wk.records,
		BaseSeq:  wk.first.BaseSeq,
		Seq:      wk.lastSeq,
		Full:     wk.first.Full,
		History:  wk.first.History,
		Tenant:   wk.first.Tenant,
		Manifest: wk.m,
	}
}

// walkBackupArchive decodes and validates one archive stream end to
// end, delivering contents to sink. The returned info describes a
// fully validated archive; any flaw is a typed *ArchiveError.
func walkBackupArchive(r io.Reader, sink backupSink) (*BackupArchiveInfo, error) {
	wk := &backupWalker{sink: sink}
	if _, err := wk.copy(nil, r); err != nil {
		return nil, err
	}
	return wk.info(), nil
}

// errArchiveWrite wraps a failed write of a validated frame.
var errArchiveWrite = errors.New("writing backup archive")

// copy feeds src's frames through the grammar to the archive's end,
// writing each validated frame to dst (nil: nowhere), and returns the
// length of the validated prefix. A frame the codec refuses is an
// *ArchiveError like a grammar flaw: truncated if it was cut short,
// corrupt otherwise.
func (wk *backupWalker) copy(dst io.Writer, src io.Reader) (int64, error) {
	fr := &frameReader{r: src}
	for {
		off := fr.off
		typ, payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			return off, wk.finish(off)
		}
		if ce := (*CorruptError)(nil); errors.As(err, &ce) {
			sentinel := ErrArchiveCorrupt
			if errors.Is(ce.Err, io.ErrUnexpectedEOF) {
				sentinel = ErrArchiveTruncated
			}
			return off, &ArchiveError{Offset: off, Err: fmt.Errorf("%w: %v", sentinel, ce.Err)}
		}
		if err := wk.feed(typ, payload, off); err != nil {
			return off, err
		}
		if dst != nil {
			if err := writeReplFrame(dst, typ, payload); err != nil {
				return off, fmt.Errorf("%w: %w", errArchiveWrite, err)
			}
		}
	}
}

// walkBackupFiles runs the walker across a chain of archive files in
// order, as if they were one stream — a full backup followed by
// incrementals restores or verifies in a single pass.
func walkBackupFiles(paths []string, sink backupSink) (*BackupArchiveInfo, error) {
	if len(paths) == 0 {
		return nil, errors.New("crowddb: no backup archives given")
	}
	readers := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		readers = append(readers, f)
	}
	return walkBackupArchive(io.MultiReader(readers...), sink)
}

// BackupStreamInfo reports how far one backup stream got. Complete
// means the stream ended exactly at a closed segment; Resumable means
// the bytes written so far form a valid archive prefix that a
// continuation (?since=LastSeq) can extend by appending.
type BackupStreamInfo struct {
	Manifest     BackupManifest
	HaveManifest bool
	LastSeq      int64
	Records      int64
	Bytes        int64
	Complete     bool
	Resumable    bool
}

// CopyBackupStream validates a backup stream from src frame by frame
// and writes only whole, validated frames to dst — dst therefore
// always holds a well-formed archive prefix, no matter where the
// stream dies. Returns nil only for a complete archive; the info is
// meaningful either way (it drives resume).
func CopyBackupStream(dst io.Writer, src io.Reader) (BackupStreamInfo, error) {
	wk := &backupWalker{}
	n, err := wk.copy(dst, src)
	info := BackupStreamInfo{
		HaveManifest: wk.haveFirst,
		LastSeq:      -1,
		Records:      wk.records,
		Bytes:        n,
		Complete:     err == nil,
		// A torn write leaves dst mid-frame: appending cannot heal it.
		Resumable: wk.haveFirst && wk.bootstrapDone && !errors.Is(err, errArchiveWrite),
	}
	if wk.haveFirst {
		info.Manifest, info.LastSeq = wk.m, wk.lastSeq
	}
	return info, err
}

// RestoreOptions tunes RestoreBackup.
type RestoreOptions struct {
	// ToSeq, when positive, replays the archive only through this seq
	// (point-in-time restore). Zero or negative restores the full
	// archive. Must lie within [base, head] of the archive.
	ToSeq int64
	// Logf receives progress notices. nil is silent.
	Logf func(format string, args ...any)
}

// RestoreResult describes the data directory RestoreBackup produced.
type RestoreResult struct {
	Dir          string `json:"dir"`
	Tenant       string `json:"tenant"`
	History      string `json:"history"`
	BaseSeq      int64  `json:"base_seq"`
	Seq          int64  `json:"seq"`
	Records      int64  `json:"records"`
	FencingEpoch uint64 `json:"fencing_epoch,omitempty"`
	// Digest is the expected combined digest at Seq: the manifest stamp
	// when the restore runs to a stamped cut, empty for a point-in-time
	// seq no segment was cut at.
	Digest string `json:"digest,omitempty"`
}

// RestoreBackup materializes an archive chain (one full backup plus
// any incrementals, in order) as a fresh generation-1 data directory:
// a journal holding the archived records, then the dataset, model
// checkpoint, replication sidecar and store snapshot through the one
// generation writer compaction uses, so the sidecar's digest stamps are
// the hashes of the exact bytes written, and the boot verifies the
// generation against them (Open) before its boot replays the
// journal — replay determinism (DESIGN §14) makes
// the restored node byte-identical to the source at the backup seq:
// same digest, able to serve, re-seed followers, and join supervision.
// The directory must not exist or must be empty, and a refused restore
// leaves it so: the archive is read whole before anything is written,
// and an error removes whatever was.
func RestoreBackup(dir string, archives []string, opts RestoreOptions) (_ *RestoreResult, err error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return nil, err
	} else if len(entries) > 0 {
		return nil, fmt.Errorf("crowddb: refusing to restore into non-empty directory %s", dir)
	}
	defer func() {
		if err != nil {
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}()

	var (
		dataset, model []byte
		journal        []byte
		snap           replSnapshotMsg
		written        int64
		lastKept       int64
		cuts           = map[int64]BackupManifest{}
	)
	info, err := walkBackupFiles(archives, backupSink{
		manifest: func(m BackupManifest, segment int) error {
			if segment == 0 {
				if !m.Full {
					return fmt.Errorf("crowddb: restore needs a full backup archive first (got an incremental from seq %d)", m.BaseSeq)
				}
				if opts.ToSeq > 0 && opts.ToSeq < m.BaseSeq {
					return fmt.Errorf("crowddb: to-seq %d predates the archive base %d", opts.ToSeq, m.BaseSeq)
				}
				lastKept = m.BaseSeq
			}
			cuts[m.Seq] = m
			return checkOrigin(m.Arch, m.Kernel)
		},
		dataset:  func(b []byte) error { dataset = append([]byte(nil), b...); return nil },
		model:    func(b []byte) error { model = append([]byte(nil), b...); return nil },
		snapshot: func(m replSnapshotMsg) error { snap = m; return nil },
		record: func(m replRecordMsg) error {
			if opts.ToSeq > 0 && m.Seq > opts.ToSeq {
				return nil // validate the rest of the archive, journal none of it
			}
			var err error
			if journal, err = appendFrame(journal, m.Event, maxRecordSize); err != nil {
				// A journal holding it would not boot.
				return fmt.Errorf("crowddb: restore: record %d: %w", m.Seq, err)
			}
			written++
			lastKept = m.Seq
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if opts.ToSeq > info.Seq {
		return nil, fmt.Errorf("crowddb: to-seq %d is beyond the archive head %d", opts.ToSeq, info.Seq)
	}

	// The journal lands before the generation's commit point, so a
	// crash mid-restore leaves a journal with no snapshot, which Open
	// refuses: never a directory that boots without its records, or
	// that reads as fresh.
	const gen = 1
	if err := writeFileAtomic(filepath.Join(dir, fmt.Sprintf(journalPattern, gen)), fromBytes(journal)); err != nil {
		return nil, err
	}
	g := generation{
		dataset: dataset,
		model:   fromBytes(model),
		store:   fromBytes(snap.file()),
		sidecar: adoptedSidecar(info.History, info.BaseSeq, info.Manifest.FencingEpoch),
		tenant:  info.Tenant,
	}
	sc, err := writeGeneration(dir, gen, g)
	if err != nil {
		return nil, fmt.Errorf("crowddb: restore: %w", err)
	}

	res := &RestoreResult{
		Dir:          dir,
		Tenant:       info.Tenant,
		History:      info.History,
		BaseSeq:      info.BaseSeq,
		Seq:          lastKept,
		Records:      written,
		FencingEpoch: sc.FencingEpoch,
	}
	if m, ok := cuts[lastKept]; ok {
		res.Digest = m.Digest
	}
	logf("crowddb: restore: %s ← %d records over snapshot at %d (head %d)", dir, written, info.BaseSeq, lastKept)
	return res, nil
}

// VerifyBackupOptions tunes VerifyBackup.
type VerifyBackupOptions struct {
	// ScratchDir is where the archive is restored and booted: it must
	// not exist or be empty, and is kept afterwards. Empty uses a temp
	// dir, removed afterwards.
	ScratchDir string
	// Logf receives progress notices. nil is silent.
	Logf func(format string, args ...any)
}

// BackupVerifyReport is VerifyBackup's account of what it proved.
type BackupVerifyReport struct {
	Archives []string `json:"archives"`
	Segments int      `json:"segments"`
	Records  int64    `json:"records"`
	BaseSeq  int64    `json:"base_seq"`
	Seq      int64    `json:"seq"`
	History  string   `json:"history"`
	Tenant   string   `json:"tenant"`
	Full     bool     `json:"full"`
	// StoreDigest and Digest are the store component and the combined
	// digest of the booted restore. Empty when the archive has no full
	// segment to restore from.
	StoreDigest string `json:"store_digest,omitempty"`
	Digest      string `json:"digest,omitempty"`
	// DigestVerified reports that the recomputed digest matched the
	// final manifest's stamp.
	DigestVerified bool `json:"digest_verified"`
}

// VerifyBackup proves an archive chain offline, without a running
// node: every frame's CRC and the segment grammar (via the walker),
// then — when the chain starts with a full segment — exactly what a
// restore boots: RestoreBackup into the scratch directory, then
// OpenTenant under the final manifest's tenant and shard (Open verifies
// the generation against its stamps, the boot replays the journal), and
// a digest cut compared against the final manifest's stamps. Any
// flipped bit fails one of them: CRC catches payload damage, the digest
// anything subtler, and a record that does not apply fails the boot's
// replay (*CorruptError).
func VerifyBackup(archives []string, opts VerifyBackupOptions) (*BackupVerifyReport, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	info, err := walkBackupFiles(archives, backupSink{
		manifest: func(m BackupManifest, _ int) error { return checkOrigin(m.Arch, m.Kernel) },
	})
	if err != nil {
		return nil, err
	}
	report := &BackupVerifyReport{
		Archives: archives,
		Segments: info.Segments,
		Records:  info.Records,
		BaseSeq:  info.BaseSeq,
		Seq:      info.Seq,
		History:  info.History,
		Tenant:   info.Tenant,
		Full:     info.Full,
	}
	if !info.Full {
		// Incremental-only chain: structure and CRCs proved, state not
		// reconstructible. Still a pass — the caller chained it after a
		// full archive or will.
		logf("crowddb: verify-backup: structural pass only (no full segment)")
		return report, nil
	}

	dir := opts.ScratchDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "crowd-verify-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if _, err := RestoreBackup(dir, archives, RestoreOptions{}); err != nil {
		return nil, err
	}
	final := info.Manifest
	var shard ShardSpec
	if final.Shard != nil {
		shard = *final.Shard
	}
	// No digest depends on the crowd size.
	sl, err := OpenTenant(SliceConfig{Name: info.Tenant, Dir: dir, Shard: shard, CrowdK: 1})
	if ce := (*CorruptError)(nil); errors.As(err, &ce) {
		// A record the boot cannot replay is the archive's fault.
		err = fmt.Errorf("%w: %w", ErrArchiveCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	defer sl.DB.Close()
	cut, err := sl.Digest()
	if err != nil {
		return nil, err
	}
	report.StoreDigest, report.Digest = cut.Store, cut.Digest

	for _, c := range [...]struct{ what, got, want string }{
		{"store", cut.Store, final.StoreDigest},
		{"model", cut.Model, final.ModelDigest},
		{"combined", cut.Digest, final.Digest},
	} {
		if c.want != "" && c.got != c.want {
			return report, fmt.Errorf("%w: %s digest %s, manifest stamps %s at seq %d",
				ErrBackupDigestMismatch, c.what, c.got, c.want, final.Seq)
		}
	}
	report.DigestVerified = final.Digest != ""
	logf("crowddb: verify-backup: %d records over %d segments verified (digest %s)", report.Records, report.Segments, report.Digest)
	return report, nil
}

// handleBackup serves GET /api/v1/backup for the request's tenant.
// 501 when no backup source is wired (no durable store behind the
// server). The middleware shell exempts this path from admission,
// deadline and body caps, exactly like the replication stream — it is
// a fleet-plane transfer, gated by the fleet token when one is set.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) {
	h := s.tenantFor(r).Backup
	if h == nil {
		writeErr(w, r, refuse(errNotImplemented, "no backup source on this node"))
		return
	}
	h.ServeHTTP(w, r)
}
