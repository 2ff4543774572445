package crowddb

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"crowdselect/internal/clock"
	"crowdselect/internal/race"
)

// TestFrameGoldenBytes pins the bytes of one journal record and of one
// replication frame carrying the same payload: the stream frame is the
// type byte followed by the journal frame, and neither layout may move
// (journals, generations, streams and archives on disk and on the wire
// all hold these bytes).
func TestFrameGoldenBytes(t *testing.T) {
	var journal bytes.Buffer
	s := NewStore()
	s.clock = new(clock.Manual)
	journalInto(s, &journal)
	if _, err := s.AddWorker(3, "w"); err != nil {
		t.Fatal(err)
	}
	const payload = `{"kind":"add_worker","worker":3,"name":"w","at":"2015-03-23T09:00:00Z"}`
	const record = "47000000" + "27ecd639" + // length 71, CRC32 (IEEE) of the payload
		"7b226b696e64223a226164645f776f726b6572222c22776f726b6572223a332c226e616d65223a2277222c226174223a22323031352d30332d32335430393a30303a30305a227d"
	if got := hex.EncodeToString(journal.Bytes()); got != record {
		t.Errorf("journal record\n got %s\nwant %s", got, record)
	}
	if got := hex.EncodeToString([]byte(payload)); got != record[16:] {
		t.Errorf("payload hex %s is not the record's", got)
	}

	var stream bytes.Buffer
	if err := writeReplFrame(&stream, frameRecord, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(stream.Bytes()), "05"+record; got != want {
		t.Errorf("stream frame\n got %s\nwant %s", got, want)
	}
}

// discardFile is a journal file that keeps nothing.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// TestJournalAppendAllocations fences one journal append: the JSON
// encoding of the event and the one buffer its frame is built in.
func TestJournalAppendAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	s := NewStore()
	clk := new(clock.Manual)
	s.setJournal(testJournalWriter(discardFile{}, SyncPolicy{}, clk))
	e := event{Kind: evAddTask, Task: 7, Text: "what is a b+ tree", Tokens: []string{"b+", "tree"}, At: clk.Now()}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.logEvent(e, func() {}); err != nil {
			t.Fatal(err)
		}
	})
	// 4 is what the journal's own encoder (logRecord) allocated before
	// the codec was shared: json.Marshal's allocations and the frame.
	if allocs > 4 {
		t.Fatalf("one journal append allocates %.1f times, fence 4", allocs)
	}
}

// TestFrameCapHoldsBothWays: the codec refuses to encode a payload over
// its cap, so nothing is written that the reader with the same cap
// refuses, and a payload at the cap goes through both ways.
func TestFrameCapHoldsBothWays(t *testing.T) {
	at := bytes.Repeat([]byte("x"), maxRecordSize)
	journal, err := appendFrame(nil, at, maxRecordSize)
	if err != nil {
		t.Fatalf("a payload at the cap: %v", err)
	}
	if res, err := walkJournal(journal, func(int, int64, []byte) error { return nil }); err != nil || res.Records != 1 || res.Torn {
		t.Fatalf("walk of a record at the cap = %+v, %v", res, err)
	}
	if _, err := appendFrame(nil, append(at, 'x'), maxRecordSize); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("a payload over the cap: err = %v, want ErrFrameTooLarge", err)
	}
	// The same payload is a well-formed stream frame: the cap is the
	// caller's, not the layout's.
	var stream bytes.Buffer
	if err := writeReplFrame(&stream, frameRecord, append(at, 'x')); err != nil {
		t.Fatal(err)
	}
	// Read as a journal (type byte dropped), it announces a length over
	// the journal's cap: corruption, not a torn tail.
	var ce *CorruptError
	if _, err := walkJournal(stream.Bytes()[1:], func(int, int64, []byte) error { return nil }); !errors.As(err, &ce) || ce.Record != 0 {
		t.Fatalf("walk of a record over the cap: err = %v, want *CorruptError at record 0", err)
	}
}

// FuzzFrameCodec holds the codec's two readers to each other on byte
// soup: read as typed frames (a replication stream or backup archive)
// and, with each frame's type byte removed, as a journal, it gives the
// same payloads at the same offsets (one byte fewer per type byte
// before them), and the journal stops where the stream does unless the
// stream stopped at a type byte it does not know. The encoder writes
// every frame back byte for byte. Both readers fail only with io.EOF,
// a torn tail or a *CorruptError, and never panic.
func FuzzFrameCodec(f *testing.F) {
	valid := func(frames ...[]byte) []byte {
		var buf bytes.Buffer
		for i, p := range frames {
			typ := []byte{frameHello, frameRecord, frameHeartbeat, frameSnapshot}[i%4]
			if err := writeReplFrame(&buf, typ, p); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(valid([]byte(`{"history":"abc","seq":1}`)))
	f.Add(valid([]byte(`{"seq":1,"bytes":10,"event":{}}`), []byte(`{"seq":2}`), []byte{}))
	// The layout older builds wrote: byte positions, the hello's
	// generation and the heartbeat's timestamp.
	f.Add(valid([]byte(`{"history":"abc","seq":2,"bytes":40,"generation":3,"bootstrap":false,"fencing_epoch":1}`),
		[]byte(`{"seq":2,"bytes":40,"event":{"kind":"add_worker","worker":0,"name":"w"}}`),
		[]byte(`{"seq":2,"bytes":40,"at":"2026-10-17T16:21:04.5Z","digest":"ab"}`)))
	f.Add(valid([]byte(`x`))[:3]) // truncated header
	corrupt := valid([]byte(`{"seq":9}`), []byte(`{"seq":10}`))
	corrupt[1+recordHeaderSize+2] ^= 0x41
	f.Add(corrupt)                                                           // bad checksum mid-stream
	f.Add(corrupt[:1+recordHeaderSize+len(`{"seq":9}`)])                     // bad checksum at the end
	f.Add([]byte{frameRecord, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})           // oversize length
	f.Add([]byte{frameRecord, 0x01, 0x00, 0x10, 0x00, 0, 0, 0, 0})           // over the journal's cap only
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, valid([]byte(`{}`))...)) // unknown type: the journal reads on
	f.Add([]byte("\x05\x03\x00\x00\x00\xde\xad\xbe\xefabc"))                 // bad checksum
	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct {
			off     int64
			payload []byte
		}
		var stream []frame
		var journal []byte
		fr := &frameReader{r: bufio.NewReaderSize(bytes.NewReader(data), 16)}
		var streamErr error
		for streamErr == nil {
			off := fr.off
			var typ byte
			var payload []byte
			if typ, payload, streamErr = fr.next(); streamErr != nil {
				break
			}
			var re bytes.Buffer
			if err := writeReplFrame(&re, typ, payload); err != nil || !bytes.Equal(re.Bytes(), data[off:fr.off]) {
				t.Fatalf("frame %d at %d does not encode back to its bytes (err %v)", len(stream), off, err)
			}
			stream = append(stream, frame{off - int64(len(stream)), payload})
			journal = append(journal, data[off+1:fr.off]...)
		}
		var ce *CorruptError
		if streamErr != io.EOF {
			if !errors.As(streamErr, &ce) {
				t.Fatalf("stream decoder failed with untyped error %T: %v", streamErr, streamErr)
			}
			if ce.Offset != fr.off || ce.Record != len(stream) {
				t.Fatalf("stream error at frame %d offset %d, want frame %d offset %d", ce.Record, ce.Offset, len(stream), fr.off)
			}
		}
		rest := data[fr.off:]
		if len(rest) > 0 {
			journal = append(journal, rest[1:]...)
		}

		var got []frame
		res, err := walkJournal(journal, func(_ int, off int64, payload []byte) error {
			got = append(got, frame{off, payload})
			return nil
		})
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("journal reader failed with untyped error %T: %v", err, err)
		}
		if len(got) < len(stream) {
			t.Fatalf("journal read %d records, the stream %d frames", len(got), len(stream))
		}
		for i, fs := range stream {
			if got[i].off != fs.off || !bytes.Equal(got[i].payload, fs.payload) {
				t.Fatalf("record %d: journal offset %d, %d bytes; stream offset %d, %d bytes", i, got[i].off, len(got[i].payload), fs.off, len(fs.payload))
			}
		}
		unknownType := len(rest) > recordHeaderSize && (rest[0] < frameHello || rest[0] > frameBackupEnd)
		switch {
		case len(rest) <= 1: // a clean end, or a lone type byte: nothing to a journal
			if err != nil || res.Torn || len(got) != len(stream) {
				t.Fatalf("stream of %d frames (%v) read as a journal: %d records, torn %v, err %v", len(stream), streamErr, len(got), res.Torn, err)
			}
		case unknownType:
			// The journal has no type bytes to refuse.
		case len(got) != len(stream):
			t.Fatalf("stream stopped at frame %d (%v), the journal read on to %d", len(stream), streamErr, len(got))
		case err == nil && !res.Torn:
			t.Fatalf("stream stopped at frame %d (%v), the journal ended cleanly", len(stream), streamErr)
		case err != nil && (ce.Record != len(stream) || ce.Offset != fr.off-int64(len(stream))):
			t.Fatalf("journal error at record %d offset %d, the stream's at frame %d", ce.Record, ce.Offset, len(stream))
		}
	})
}
