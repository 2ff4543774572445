package crowddb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The frame codec: every journal record is one frame, and every
// replication or backup frame is a type byte in front of one,
//
//	[4B little-endian payload length][4B little-endian CRC32 (IEEE) of payload][payload]
//
// The payload cap is the caller's, and it holds when a frame is encoded
// as well as when it is decoded: no writer makes a frame its reader
// refuses.

// recordHeaderSize is a frame's header; a typed frame adds its type byte.
const recordHeaderSize = 8

const (
	maxRecordSize    = 1 << 20  // a journal record: a longer one is length rot, not a torn tail
	maxReplFrameSize = 64 << 20 // a typed frame: bootstrap frames carry whole checkpoints
)

// ErrFrameTooLarge refuses a payload over its cap before anything is
// written; a mutation it refuses changes nothing (413 request_too_large).
var ErrFrameTooLarge = errors.New("crowddb: record too large")

// appendFrame appends payload's frame to dst, refusing a payload over max.
func appendFrame(dst, payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return dst, fmt.Errorf("%w: %d bytes exceeds the frame cap of %d", ErrFrameTooLarge, len(payload), max)
	}
	dst = slices.Grow(dst, recordHeaderSize+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// frameHeader is a frame's first recordHeaderSize bytes.
type frameHeader []byte

// length is the payload length h announces, which must not pass max.
func (h frameHeader) length(max int) (int, error) {
	n := binary.LittleEndian.Uint32(h)
	if n > uint32(max) {
		return 0, fmt.Errorf("frame length %d exceeds %d", n, max)
	}
	return int(n), nil
}

// check refuses a payload whose checksum is not the one h carries.
func (h frameHeader) check(payload []byte) error {
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(h[4:]) {
		return errors.New("checksum mismatch")
	}
	return nil
}

// writeReplFrame writes one typed frame onto w.
func writeReplFrame(w io.Writer, typ byte, payload []byte) error {
	b, err := appendFrame([]byte{typ}, payload, maxReplFrameSize)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// frameReader reads typed frames. A clean end between frames is io.EOF;
// a frame cut short, of an unknown type or failing the codec is a
// *CorruptError: unlike a journal's torn tail, a cut stream is an error.
type frameReader struct {
	r      io.Reader
	off    int64 // stream offset of the next frame
	frames int   // frames read
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	var hdr [1 + recordHeaderSize]byte
	if n, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fr.corrupt(io.ErrUnexpectedEOF)
	}
	typ, h := hdr[0], frameHeader(hdr[1:])
	if typ < frameHello || typ > frameBackupEnd {
		return 0, nil, fr.corrupt(fmt.Errorf("unknown frame type 0x%02x", typ))
	}
	length, err := h.length(maxReplFrameSize)
	if err != nil {
		return 0, nil, fr.corrupt(err)
	}
	// CopyN rather than a pre-sized ReadFull so a lying length header
	// cannot force a huge allocation before the truncation is noticed.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, fr.r, int64(length)); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fr.corrupt(err)
	}
	if err := h.check(buf.Bytes()); err != nil {
		return 0, nil, fr.corrupt(err)
	}
	fr.off += int64(len(hdr) + length)
	fr.frames++
	return typ, buf.Bytes(), nil
}

func (fr *frameReader) corrupt(err error) error {
	return &CorruptError{Offset: fr.off, Record: fr.frames, Err: err}
}
