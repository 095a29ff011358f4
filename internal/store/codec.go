// Package store persists application signatures on disk: a compact binary
// codec plus a content-addressed, crash-safe object store with an
// append-only manifest index. The expensive artifact of the methodology is
// the signature collected at small core counts — extrapolation and
// prediction are cheap replays over it — so signatures are the natural
// unit of durable reuse: a process that finds one on disk skips the whole
// cache simulation (the Engine's "warm start").
//
// The codec (this file) is a streaming format: the writer emits one record
// at a time and the reader consumes one record at a time, so a signature
// is never resident twice (once as structs, once as encoded bytes). Each
// record carries its own CRC-32C, which localizes corruption: a torn write
// or flipped bit fails that record's checksum instead of silently decoding
// into garbage.
//
// Layout of a trace-signature object (all integers unsigned varints unless
// noted):
//
//	magic "TXSG" | version (1 byte)
//	'H' app machine core_count trace_count           | crc32c (4 bytes LE)
//	'T' rank levels block_count { block... }         | crc32c   ×trace_count
//	'E' total_blocks                                 | crc32c
//
// Each block is: a zigzag varint delta of its ID against the previous
// block's, interned func and file strings (first use inlines the literal,
// later uses are a table index), a zigzag varint line number, and the
// flattened feature vector. Feature values are tagged per value: 0 encodes
// the common 0.0 in one byte, 1 encodes non-negative integral counts as a
// varint (most feature elements are operation counts), 2 falls back to the
// raw IEEE-754 bits (hit rates, ILP, averages).
//
// Version 2 adds a second object kind, the machine-independent
// reuse-distance signature, distinguished by its first record marker:
//
//	magic "TXSG" | 2
//	'R' app core_count line_size block_count         | crc32c
//	'B' id_delta func file line refs working_set
//	    fp_per_ref add mul div load bytes_per_ref ilp
//	    cold hist_refs bucket_count {bucket_delta count}... | crc32c  ×block_count
//	'E' total_buckets                                | crc32c
//
// Histograms are sparse: only non-zero buckets are written, as (ascending
// delta-encoded bucket index, count) pairs. Trace-signature objects encode
// byte-identically under version 1 and 2 except the version byte, so v1
// objects written before the bump keep decoding.
//
// Version 3 is a trace signature that carries uncertainty
// (trace.SignatureUncertainty). It adds one record between the last trace
// and the end record:
//
//	'U' dof block_count { id_delta var_count value... } | crc32c
//
// Block IDs are zigzag varint deltas as in trace records, and each
// variance is a tagged value, so a zero variance costs one byte. The
// version byte follows the content: an object carries the 'U' record
// exactly when its version is 3, so a signature without uncertainty, and
// every reuse signature, still encodes to its version-2 bytes and keeps
// its content hash.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"tracex/internal/trace"
)

// Magic identifies a tracex signature object file.
var Magic = [4]byte{'T', 'X', 'S', 'G'}

// Version is the version byte of every object without uncertainty: reuse
// signatures and trace signatures that carry none. Version 1 (trace
// signatures only) still decodes unchanged, since v2 only added the
// reuse-signature object kind.
const Version = 2

// versionUncertainty stamps a trace signature carrying an uncertainty
// record; it is the newest version Decode accepts.
const versionUncertainty = 3

// minVersion is the oldest version Decode accepts.
const minVersion = 1

// ErrCorrupt reports an object that failed structural or checksum
// validation. Every decode failure wraps it, so callers can distinguish
// corruption (quarantine the record, treat as a miss) from I/O errors.
var ErrCorrupt = errors.New("store: corrupt signature record")

// ErrWrongKind reports a structurally valid object of the other kind (a
// reuse signature where a trace signature was expected, or vice versa). It
// does not wrap ErrCorrupt: the object is healthy and must not be
// quarantined.
var ErrWrongKind = errors.New("store: object kind mismatch")

// Record type markers.
const (
	recHeader     = 'H'
	recTrace      = 'T'
	recEnd        = 'E'
	recReuse      = 'R'
	recReuseBlock = 'B'
	recUncert     = 'U'
)

// Feature-value tags.
const (
	tagZero  = 0 // the value 0.0, no payload
	tagUint  = 1 // non-negative integral value, uvarint payload
	tagFloat = 2 // raw IEEE-754 bits, 8-byte little-endian payload
)

// Decoder resource bounds. The codec is exposed to untrusted bytes (import,
// HTTP PUT, fuzzing); these caps turn allocation bombs into ErrCorrupt.
const (
	maxStringLen = 1 << 16
	maxLevels    = 64
	maxCores     = 1 << 26
	maxBlocks    = 1 << 22
	maxLineSize  = 1 << 16
	maxVars      = trace.NumScalarElements + maxLevels
	maxDof       = math.MaxInt32
)

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encoder streams a signature into w, maintaining the running per-record
// checksum. Its writes report no error: bufio.Writer's error is sticky
// (after a failed write it accepts nothing more), so the encoder checks it
// once, at the final Flush.
type encoder struct {
	w   *bufio.Writer
	rec hash.Hash32
	buf [binary.MaxVarintLen64]byte
}

// newEncoder starts an object of the given codec version on w.
func newEncoder(w io.Writer, version byte) *encoder {
	e := &encoder{w: bufio.NewWriter(w), rec: crc32.New(castagnoli)}
	e.w.Write(Magic[:])
	e.w.WriteByte(version)
	return e
}

// write appends b to the output and the current record's checksum.
func (e *encoder) write(b []byte) {
	e.rec.Write(b)
	e.w.Write(b)
}

func (e *encoder) writeByte(b byte) { e.write([]byte{b}) }

func (e *encoder) writeUvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) writeVarint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) writeString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.write([]byte(s))
}

// endRecord emits the current record's CRC and resets it for the next one.
func (e *encoder) endRecord() {
	binary.LittleEndian.PutUint32(e.buf[:4], e.rec.Sum32())
	e.w.Write(e.buf[:4])
	e.rec.Reset()
}

// intern writes s as a reference into the incremental string table: a
// known string is a table index; a new one is the index one past the end
// followed by the literal, and joins the table.
func (e *encoder) intern(table map[string]uint64, s string) {
	if idx, ok := table[s]; ok {
		e.writeUvarint(idx)
		return
	}
	idx := uint64(len(table))
	e.writeUvarint(idx)
	e.writeString(s)
	table[s] = idx
}

// writeValue encodes one feature-vector element.
func (e *encoder) writeValue(v float64) {
	switch {
	case v == 0 && !math.Signbit(v):
		e.writeByte(tagZero)
	case v == math.Trunc(v) && v > 0 && v <= 1<<53:
		e.writeByte(tagUint)
		e.writeUvarint(uint64(v))
	default:
		e.writeByte(tagFloat)
		binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(v))
		e.write(e.buf[:8])
	}
}

// Encode writes the signature to w in the compact binary format. It
// streams: one block is in flight at a time, so memory stays O(1) in the
// signature size beyond the signature itself.
func Encode(w io.Writer, s *trace.Signature) error {
	if s == nil {
		return fmt.Errorf("store: encoding nil signature")
	}
	version := byte(Version)
	if s.Uncertainty != nil {
		version = versionUncertainty
	}
	e := newEncoder(w, version)
	e.writeByte(recHeader)
	e.writeString(s.App)
	e.writeString(s.Machine)
	e.writeUvarint(uint64(s.CoreCount))
	e.writeUvarint(uint64(len(s.Traces)))
	e.endRecord()
	var totalBlocks uint64
	for i := range s.Traces {
		tr := &s.Traces[i]
		if err := e.encodeTrace(tr); err != nil {
			return fmt.Errorf("store: encoding trace %d: %w", i, err)
		}
		totalBlocks += uint64(len(tr.Blocks))
	}
	if s.Uncertainty != nil {
		e.encodeUncertainty(s.Uncertainty)
	}
	// End record: a truncated file is missing it, and its block total
	// cross-checks the per-trace counts.
	e.writeByte(recEnd)
	e.writeUvarint(totalBlocks)
	e.endRecord()
	return e.w.Flush()
}

// encodeTrace writes one trace record. It fails only on a feature vector
// whose hit rates do not match the trace's level count.
func (e *encoder) encodeTrace(tr *trace.Trace) error {
	e.writeByte(recTrace)
	e.writeUvarint(uint64(tr.Rank))
	e.writeUvarint(uint64(tr.Levels))
	e.writeUvarint(uint64(len(tr.Blocks)))
	table := make(map[string]uint64)
	var prevID uint64
	for i := range tr.Blocks {
		b := &tr.Blocks[i]
		e.writeVarint(int64(b.ID - prevID))
		prevID = b.ID
		e.intern(table, b.Func)
		e.intern(table, b.File)
		e.writeVarint(int64(b.Line))
		vals, err := b.FV.Values(tr.Levels)
		if err != nil {
			return err
		}
		for _, v := range vals {
			e.writeValue(v)
		}
	}
	e.endRecord()
	return nil
}

// encodeUncertainty writes the uncertainty record.
func (e *encoder) encodeUncertainty(u *trace.SignatureUncertainty) {
	e.writeByte(recUncert)
	e.writeUvarint(uint64(u.Dof))
	e.writeUvarint(uint64(len(u.Blocks)))
	var prevID uint64
	for i := range u.Blocks {
		b := &u.Blocks[i]
		e.writeVarint(int64(b.ID - prevID))
		prevID = b.ID
		e.writeUvarint(uint64(len(b.Vars)))
		for _, v := range b.Vars {
			e.writeValue(v)
		}
	}
	e.endRecord()
}

// decoder streams a signature out of r, verifying per-record checksums.
type decoder struct {
	r   *bufio.Reader
	rec hash.Hash32
	buf [8]byte
}

// corruptf wraps a structural failure as ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// readFull reads exactly len(b) bytes into the record checksum.
func (d *decoder) readFull(b []byte) error {
	if _, err := io.ReadFull(d.r, b); err != nil {
		return corruptf("unexpected end of data: %v", err)
	}
	d.rec.Write(b)
	return nil
}

func (d *decoder) readByte() (byte, error) {
	if err := d.readFull(d.buf[:1]); err != nil {
		return 0, err
	}
	return d.buf[0], nil
}

func (d *decoder) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(byteReader{d})
	if err != nil {
		return 0, corruptf("reading varint: %v", err)
	}
	return v, nil
}

func (d *decoder) readVarint() (int64, error) {
	v, err := binary.ReadVarint(byteReader{d})
	if err != nil {
		return 0, corruptf("reading varint: %v", err)
	}
	return v, nil
}

// byteReader adapts the checksummed reader to io.ByteReader for the varint
// helpers.
type byteReader struct{ d *decoder }

func (br byteReader) ReadByte() (byte, error) {
	if err := br.d.readFull(br.d.buf[:1]); err != nil {
		return 0, err
	}
	return br.d.buf[0], nil
}

func (d *decoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", corruptf("string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if err := d.readFull(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// endRecord reads the stored CRC (outside the checksum) and compares it to
// the record's computed one.
func (d *decoder) endRecord() error {
	if _, err := io.ReadFull(d.r, d.buf[:4]); err != nil {
		return corruptf("missing record checksum: %v", err)
	}
	want := binary.LittleEndian.Uint32(d.buf[:4])
	got := d.rec.Sum32()
	d.rec.Reset()
	if got != want {
		return corruptf("record checksum mismatch: %08x != %08x", got, want)
	}
	return nil
}

// unintern resolves a string-table reference, growing the table on first
// use exactly as the encoder did.
func (d *decoder) unintern(table *[]string) (string, error) {
	idx, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	switch {
	case idx < uint64(len(*table)):
		return (*table)[idx], nil
	case idx == uint64(len(*table)):
		s, err := d.readString()
		if err != nil {
			return "", err
		}
		*table = append(*table, s)
		return s, nil
	default:
		return "", corruptf("string index %d beyond table of %d", idx, len(*table))
	}
}

// readValue decodes one feature-vector element.
func (d *decoder) readValue() (float64, error) {
	tag, err := d.readByte()
	if err != nil {
		return 0, err
	}
	switch tag {
	case tagZero:
		return 0, nil
	case tagUint:
		u, err := d.readUvarint()
		if err != nil {
			return 0, err
		}
		if u > 1<<53 {
			return 0, corruptf("integral value %d exceeds float precision", u)
		}
		return float64(u), nil
	case tagFloat:
		if err := d.readFull(d.buf[:8]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8])), nil
	default:
		return 0, corruptf("unknown value tag %d", tag)
	}
}

// Decode reads one signature in the compact binary format and validates
// it. A healthy reuse-signature object fails with ErrWrongKind; every
// other structural, checksum or semantic failure wraps ErrCorrupt.
func Decode(r io.Reader) (*trace.Signature, error) {
	sig, rs, err := decodeObject(r)
	if rs != nil {
		return nil, fmt.Errorf("%w: object is a reuse signature, not a trace signature", ErrWrongKind)
	}
	return sig, err
}

// decodeObject reads and validates one object of either kind, returning
// it as sig or rs. Only an object that decodes in full counts as the
// other kind, so a corrupt one is always ErrCorrupt and gets quarantined.
func decodeObject(r io.Reader) (*trace.Signature, *trace.ReuseSignature, error) {
	d := &decoder{r: bufio.NewReader(r), rec: crc32.New(castagnoli)}
	var magic [5]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		return nil, nil, corruptf("reading magic: %v", err)
	}
	if [4]byte(magic[:4]) != Magic {
		return nil, nil, corruptf("bad magic %q", magic[:4])
	}
	version := magic[4]
	if version < minVersion || version > versionUncertainty {
		return nil, nil, corruptf("unsupported codec version %d (have %d)", version, versionUncertainty)
	}
	marker, err := d.readByte()
	if err != nil {
		return nil, nil, err
	}
	switch marker {
	case recHeader:
		sig, err := d.decodeSignature(version)
		return sig, nil, err
	case recReuse:
		// Reuse objects appeared in version 2 and never carry
		// uncertainty.
		if version != Version {
			return nil, nil, corruptf("unsupported codec version %d for reuse signature (have %d)", version, Version)
		}
		rs, err := d.decodeReuse()
		return nil, rs, err
	default:
		return nil, nil, corruptf("expected header record, found %q", marker)
	}
}

// decodeSignature reads the rest of a trace-signature object after its
// header marker.
func (d *decoder) decodeSignature(version byte) (*trace.Signature, error) {
	var err error
	s := &trace.Signature{}
	if s.App, err = d.readString(); err != nil {
		return nil, err
	}
	if s.Machine, err = d.readString(); err != nil {
		return nil, err
	}
	cores, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if cores == 0 || cores > maxCores {
		return nil, corruptf("core count %d out of range", cores)
	}
	s.CoreCount = int(cores)
	nTraces, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if nTraces > cores {
		return nil, corruptf("%d traces for %d cores", nTraces, cores)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	// Trace records. Capacity grows with the data actually read, so a
	// forged count cannot allocate ahead of the bytes backing it.
	var totalBlocks uint64
	for i := uint64(0); i < nTraces; i++ {
		tr, err := d.decodeTrace(s.CoreCount)
		if err != nil {
			return nil, fmt.Errorf("store: trace %d: %w", i, err)
		}
		totalBlocks += uint64(len(tr.Blocks))
		tr.App, tr.Machine = s.App, s.Machine
		s.Traces = append(s.Traces, *tr)
	}
	marker, err := d.readByte()
	if err != nil {
		return nil, err
	}
	if (marker == recUncert) != (version == versionUncertainty) {
		return nil, corruptf("version %d object with record %q after its traces", version, marker)
	}
	if marker == recUncert {
		if s.Uncertainty, err = d.decodeUncertainty(); err != nil {
			return nil, fmt.Errorf("store: uncertainty: %w", err)
		}
		if marker, err = d.readByte(); err != nil {
			return nil, err
		}
	}
	// End record.
	if marker != recEnd {
		return nil, corruptf("expected end record, found %q", marker)
	}
	gotBlocks, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if gotBlocks != totalBlocks {
		return nil, corruptf("end record counts %d blocks, decoded %d", gotBlocks, totalBlocks)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// decodeTrace reads one trace record.
func (d *decoder) decodeTrace(coreCount int) (*trace.Trace, error) {
	marker, err := d.readByte()
	if err != nil {
		return nil, err
	}
	if marker != recTrace {
		return nil, corruptf("expected trace record, found %q", marker)
	}
	tr := &trace.Trace{CoreCount: coreCount}
	rank, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if rank >= uint64(coreCount) {
		return nil, corruptf("rank %d of %d cores", rank, coreCount)
	}
	tr.Rank = int(rank)
	levels, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if levels == 0 || levels > maxLevels {
		return nil, corruptf("level count %d out of range", levels)
	}
	tr.Levels = int(levels)
	nBlocks, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if nBlocks > maxBlocks {
		return nil, corruptf("block count %d exceeds limit", nBlocks)
	}
	var table []string
	var prevID uint64
	nVals := trace.NumScalarElements + tr.Levels
	vals := make([]float64, nVals)
	for i := uint64(0); i < nBlocks; i++ {
		var b trace.Block
		delta, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		b.ID = prevID + uint64(delta)
		prevID = b.ID
		if b.Func, err = d.unintern(&table); err != nil {
			return nil, err
		}
		if b.File, err = d.unintern(&table); err != nil {
			return nil, err
		}
		line, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		b.Line = int(line)
		for j := 0; j < nVals; j++ {
			if vals[j], err = d.readValue(); err != nil {
				return nil, err
			}
		}
		if b.FV, err = trace.FromValues(vals, tr.Levels); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		tr.Blocks = append(tr.Blocks, b)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	return tr, nil
}

// decodeUncertainty reads the body of an uncertainty record (its marker is
// already consumed).
func (d *decoder) decodeUncertainty() (*trace.SignatureUncertainty, error) {
	dof, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if dof > maxDof {
		return nil, corruptf("uncertainty dof %d out of range", dof)
	}
	nBlocks, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if nBlocks > maxBlocks {
		return nil, corruptf("uncertainty block count %d exceeds limit", nBlocks)
	}
	u := &trace.SignatureUncertainty{Dof: int(dof)}
	var prevID uint64
	for i := uint64(0); i < nBlocks; i++ {
		delta, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		b := trace.BlockUncertainty{ID: prevID + uint64(delta)}
		prevID = b.ID
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > maxVars {
			return nil, corruptf("%d variances for block %d exceed limit", n, b.ID)
		}
		b.Vars = make([]float64, n)
		for j := range b.Vars {
			if b.Vars[j], err = d.readValue(); err != nil {
				return nil, err
			}
		}
		u.Blocks = append(u.Blocks, b)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	return u, nil
}
