package crowddb

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzReplayJournal checks that journal replay never panics on
// arbitrary bytes and that a successful replay yields an internally
// consistent store. Seeds cover well-formed framed journals, framed
// garbage payloads, and raw unframed noise (torn/corrupt frames).
func FuzzReplayJournal(f *testing.F) {
	framed := [][]string{
		{},
		{`{"kind":"add_worker","worker":0,"name":"w"}`},
		{`{"kind":"add_worker","worker":0}`, `{"kind":"add_task","task":0,"text":"t"}`},
		{`{"kind":"add_worker","worker":0}`,
			`{"kind":"add_task","task":0}`,
			`{"kind":"assign","task":0,"workers":[0]}`,
			`{"kind":"answer","task":0,"worker":0,"answer":"a"}`,
			`{"kind":"resolve","task":0,"scores":{"0":3}}`},
		{`{"kind":"presence","worker":0,"online":false}`},
		{`{"kind":"zzz"}`},
		{`{"kind":"add_task","task":7}`},
		{"{"},
		{`{"kind":"resolve","task":0,"scores":{"x":1}}`},
	}
	for _, payloads := range framed {
		f.Add(string(frameRecords(payloads...)))
	}
	// Unframed noise and torn frames.
	f.Add("")
	f.Add("\x00\x00\x00")
	f.Add("\xff\xff\xff\xff\xff\xff\xff\xff")
	f.Add(string(frameRecords(`{"kind":"add_worker","worker":0}`))[:10])
	f.Fuzz(func(t *testing.T, payload string) {
		s := NewStore()
		res, err := s.replayJournal([]byte(payload), nil)
		if err != nil {
			return
		}
		if res.GoodBytes > int64(len(payload)) {
			t.Fatalf("GoodBytes %d beyond input length %d", res.GoodBytes, len(payload))
		}
		// A store built by replay must round-trip through a snapshot.
		var sb strings.Builder
		if err := s.Snapshot(&sb); err != nil {
			t.Fatalf("snapshot of replayed store failed: %v", err)
		}
		restored := NewStore()
		if err := restored.RestoreSnapshot(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("snapshot of replayed store does not restore: %v", err)
		}
		if restored.NumWorkers() != s.NumWorkers() || restored.NumTasks() != s.NumTasks() {
			t.Fatal("replay → snapshot → restore changed counts")
		}
	})
}

// FuzzBackupArchiveDecoder hardens the backup archive walker against
// byte soup: restore and verify feed it operator-supplied files, so it
// must never panic and must refuse malformed input only with its
// typed sentinels.
func FuzzBackupArchiveDecoder(f *testing.F) {
	archive := func(frames ...[2]any) []byte {
		var buf bytes.Buffer
		for _, fr := range frames {
			if err := writeReplFrame(&buf, fr[0].(byte), []byte(fr[1].(string))); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	manifest := `{"format":1,"history":"h1","full":true,"base_seq":0,"seq":1,"fencing_epoch":1,"generation":1}`
	snapshot := `{"seq":0,"bytes":0,"store":{"workers":[],"tasks":[]}}`
	record := `{"seq":1,"bytes":9,"event":{"kind":"add_worker","worker":0,"name":"w"}}`
	trailer := `{"seq":1,"records":1}`
	full := archive(
		[2]any{frameBackupManifest, manifest},
		[2]any{frameDataset, `{"workers":[],"tasks":[]}`},
		[2]any{frameModel, `{}`},
		[2]any{frameSnapshot, snapshot},
		[2]any{frameRecord, record},
		[2]any{frameBackupEnd, trailer},
	)
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-4])                                    // torn trailer
	f.Add(archive([2]any{frameBackupManifest, manifest}))        // no records, no trailer
	f.Add(archive([2]any{frameRecord, record}))                  // records before any manifest
	f.Add(archive([2]any{frameHello, `{"history":"h1"}`}))       // live repl frame in an archive
	f.Add(archive([2]any{frameBackupManifest, `{"format":99}`})) // wrong format
	f.Add(archive([2]any{frameBackupEnd, trailer}))              // trailer first
	f.Add(append(append([]byte(nil), full...), full...))         // full-after-full chain
	f.Add([]byte("\x07\xff\xff\xff\x7f\x00\x00\x00\x00"))        // oversize manifest frame
	mut := append([]byte(nil), full...)
	mut[1+recordHeaderSize+4] ^= 0x20
	f.Add(mut) // payload bit flip under a stale CRC
	// The manifest older builds wrote, with byte positions.
	oldManifest := `{"format":1,"history":"h1","full":true,"base_seq":0,"base_bytes":0,"seq":1,"bytes":70,"fencing_epoch":1,"generation":1}`
	f.Add(archive(
		[2]any{frameBackupManifest, oldManifest},
		[2]any{frameModel, `{}`},
		[2]any{frameSnapshot, snapshot},
		[2]any{frameRecord, record},
		[2]any{frameBackupEnd, trailer},
	))
	// A full segment whose model frame was cut out at its boundary.
	f.Add(archive(
		[2]any{frameBackupManifest, manifest},
		[2]any{frameDataset, `{"workers":[],"tasks":[]}`},
		[2]any{frameSnapshot, snapshot},
		[2]any{frameRecord, record},
		[2]any{frameBackupEnd, trailer},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		typedOnly := func(err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, ErrArchiveTruncated) && !errors.Is(err, ErrArchiveReordered) && !errors.Is(err, ErrArchiveCorrupt) {
				t.Fatalf("decoder failed with untyped error %T: %v", err, err)
			}
		}
		ai, err := walkBackupArchive(bytes.NewReader(data), backupSink{})
		typedOnly(err)
		if err == nil && ai.Segments < 1 {
			t.Fatal("walk succeeded without a single segment")
		}
		info, err := CopyBackupStream(io.Discard, bytes.NewReader(data))
		typedOnly(err)
		if err == nil && !info.Complete {
			t.Fatal("copy succeeded on an archive it calls incomplete")
		}
	})
}
