package store

import (
	"fmt"
	"io"
	"math/bits"

	"tracex/internal/trace"
)

// This file is the reuse-signature half of the codec (version 2): the
// machine-independent object kind whose histograms the analytical cache
// model converts into hit rates for any geometry. The framing, checksums,
// interning and value tagging are shared with the trace-signature codec.

// EncodeReuse writes the reuse-distance signature to w in the compact
// binary format (codec version 2). Like Encode it streams one block at a
// time.
func EncodeReuse(w io.Writer, rs *trace.ReuseSignature) error {
	if rs == nil {
		return fmt.Errorf("store: encoding nil reuse signature")
	}
	e := newEncoder(w, Version)
	// Reuse header record.
	e.writeByte(recReuse)
	e.writeString(rs.App)
	e.writeUvarint(uint64(rs.CoreCount))
	e.writeUvarint(uint64(rs.LineSize))
	e.writeUvarint(uint64(len(rs.Blocks)))
	e.endRecord()
	// Block records.
	table := make(map[string]uint64)
	var prevID uint64
	var totalBuckets uint64
	for i := range rs.Blocks {
		b := &rs.Blocks[i]
		totalBuckets += e.encodeReuseBlock(b, table, prevID)
		prevID = b.ID
	}
	// End record cross-checks the per-block bucket totals.
	e.writeByte(recEnd)
	e.writeUvarint(totalBuckets)
	e.endRecord()
	return e.w.Flush()
}

// encodeReuseBlock writes one block record, returning its non-zero bucket
// count.
func (e *encoder) encodeReuseBlock(b *trace.ReuseBlock, table map[string]uint64, prevID uint64) uint64 {
	e.writeByte(recReuseBlock)
	e.writeVarint(int64(b.ID - prevID))
	e.intern(table, b.Func)
	e.intern(table, b.File)
	e.writeVarint(int64(b.Line))
	for _, v := range []float64{
		b.Refs, b.WorkingSetBytes, b.FPPerRef, b.AddFrac, b.MulFrac,
		b.DivFrac, b.LoadFrac, b.BytesPerRef, b.ILP,
	} {
		e.writeValue(v)
	}
	e.writeUvarint(b.Hist.Cold)
	e.writeUvarint(b.Hist.Refs)
	var nonzero uint64
	for _, c := range b.Hist.Counts {
		if c != 0 {
			nonzero++
		}
	}
	e.writeUvarint(nonzero)
	prev := -1
	for bk, c := range b.Hist.Counts {
		if c == 0 {
			continue
		}
		e.writeUvarint(uint64(bk - prev))
		prev = bk
		e.writeUvarint(c)
	}
	e.endRecord()
	return nonzero
}

// DecodeReuse reads one reuse-distance signature and validates it. A
// healthy trace-signature object fails with ErrWrongKind; every other
// failure wraps ErrCorrupt.
func DecodeReuse(r io.Reader) (*trace.ReuseSignature, error) {
	sig, rs, err := decodeObject(r)
	if sig != nil {
		return nil, fmt.Errorf("%w: object is a trace signature, not a reuse signature", ErrWrongKind)
	}
	return rs, err
}

// decodeReuse reads the rest of a reuse-signature object after its header
// marker.
func (d *decoder) decodeReuse() (*trace.ReuseSignature, error) {
	var err error
	rs := &trace.ReuseSignature{}
	if rs.App, err = d.readString(); err != nil {
		return nil, err
	}
	cores, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if cores == 0 || cores > maxCores {
		return nil, corruptf("core count %d out of range", cores)
	}
	rs.CoreCount = int(cores)
	lineSize, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if lineSize == 0 || lineSize > maxLineSize || bits.OnesCount64(lineSize) != 1 {
		return nil, corruptf("line size %d out of range", lineSize)
	}
	rs.LineSize = int(lineSize)
	nBlocks, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if nBlocks > maxBlocks {
		return nil, corruptf("block count %d exceeds limit", nBlocks)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	var table []string
	var prevID uint64
	var totalBuckets uint64
	for i := uint64(0); i < nBlocks; i++ {
		b, n, err := d.decodeReuseBlock(&table, prevID, rs.LineSize)
		if err != nil {
			return nil, fmt.Errorf("store: reuse block %d: %w", i, err)
		}
		prevID = b.ID
		totalBuckets += n
		rs.Blocks = append(rs.Blocks, *b)
	}
	marker, err := d.readByte()
	if err != nil {
		return nil, err
	}
	if marker != recEnd {
		return nil, corruptf("expected end record, found %q", marker)
	}
	gotBuckets, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if gotBuckets != totalBuckets {
		return nil, corruptf("end record counts %d buckets, decoded %d", gotBuckets, totalBuckets)
	}
	if err := d.endRecord(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rs, nil
}

// decodeReuseBlock reads one block record, returning it and its non-zero
// bucket count.
func (d *decoder) decodeReuseBlock(table *[]string, prevID uint64, lineSize int) (*trace.ReuseBlock, uint64, error) {
	marker, err := d.readByte()
	if err != nil {
		return nil, 0, err
	}
	if marker != recReuseBlock {
		return nil, 0, corruptf("expected reuse block record, found %q", marker)
	}
	b := &trace.ReuseBlock{}
	delta, err := d.readVarint()
	if err != nil {
		return nil, 0, err
	}
	b.ID = prevID + uint64(delta)
	if b.Func, err = d.unintern(table); err != nil {
		return nil, 0, err
	}
	if b.File, err = d.unintern(table); err != nil {
		return nil, 0, err
	}
	line, err := d.readVarint()
	if err != nil {
		return nil, 0, err
	}
	b.Line = int(line)
	for _, dst := range []*float64{
		&b.Refs, &b.WorkingSetBytes, &b.FPPerRef, &b.AddFrac, &b.MulFrac,
		&b.DivFrac, &b.LoadFrac, &b.BytesPerRef, &b.ILP,
	} {
		if *dst, err = d.readValue(); err != nil {
			return nil, 0, err
		}
	}
	b.Hist.LineSize = lineSize
	if b.Hist.Cold, err = d.readUvarint(); err != nil {
		return nil, 0, err
	}
	if b.Hist.Refs, err = d.readUvarint(); err != nil {
		return nil, 0, err
	}
	nonzero, err := d.readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if nonzero > trace.MaxReuseBuckets {
		return nil, 0, corruptf("bucket count %d exceeds limit %d", nonzero, trace.MaxReuseBuckets)
	}
	prev := -1
	for i := uint64(0); i < nonzero; i++ {
		bdelta, err := d.readUvarint()
		if err != nil {
			return nil, 0, err
		}
		if bdelta == 0 || bdelta > uint64(trace.MaxReuseBuckets) {
			return nil, 0, corruptf("bucket delta %d out of range", bdelta)
		}
		bk := prev + int(bdelta)
		if bk >= trace.MaxReuseBuckets {
			return nil, 0, corruptf("bucket index %d out of range", bk)
		}
		prev = bk
		c, err := d.readUvarint()
		if err != nil {
			return nil, 0, err
		}
		if c == 0 {
			return nil, 0, corruptf("zero count for bucket %d", bk)
		}
		if bk >= len(b.Hist.Counts) {
			b.Hist.Counts = append(b.Hist.Counts, make([]uint64, bk+1-len(b.Hist.Counts))...)
		}
		b.Hist.Counts[bk] = c
	}
	return b, nonzero, d.endRecord()
}
