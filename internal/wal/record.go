// Package wal makes a pervasive environment durable: a CRC32-framed,
// length-prefixed append log of environment mutations (DDL, per-tick stream
// events, and the intent/completion of every ACTIVE β invocation) plus
// periodic checkpoints written via temp-file + rename. Recovery restores the
// last checkpoint and replays the log after it; replayed ticks recompute
// passive invocations but never re-fire active ones (Definitions 8/9: a
// restart may not duplicate the action set), consulting the logged
// intent/completion ledger instead.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/value"
)

// Type tags one log record.
type Type uint8

// Record types. The intent/result pair implements the effectful-once
// protocol for active β: the intent is made durable BEFORE the physical
// call, the result right after, so a crash between them leaves an orphan
// intent whose outcome is unknown — recovery then treats the action as
// attempted (it enters the action set, like a failed active invocation
// does live) but never re-fires it.
const (
	TypeDDL       Type = 1 // schema mutation (declare/register/unregister), re-executable text
	TypeTickBegin Type = 2 // clock tick τ started
	TypeTickEnd   Type = 3 // clock tick τ committed (all its records precede this)
	TypeInsert    Type = 4 // tuple inserted into a base relation
	TypeDelete    Type = 5 // tuple deleted from a base relation
	TypeIntent    Type = 6 // active β about to fire (query, plan node, bp, ref, input)
	TypeResult    Type = 7 // active β returned (ok + realized rows)
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypeDDL:
		return "ddl"
	case TypeTickBegin:
		return "tick-begin"
	case TypeTickEnd:
		return "tick-end"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeIntent:
		return "intent"
	case TypeResult:
		return "result"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Record is one entry of the append log. Which fields are meaningful
// depends on Type; unused fields stay zero and are not encoded.
type Record struct {
	Type Type
	At   service.Instant

	// DDL
	Text string

	// Insert / Delete
	Rel   string
	Tuple value.Tuple

	// Intent / Result
	Query string // continuous-query name
	Node  int    // invoke-node index in the registered plan (DFS preorder)
	BP    string // binding-pattern identity "proto[serviceAttr]"
	Ref   string // service reference
	Input value.Tuple
	OK    bool          // Result only: physical call succeeded
	Rows  []value.Tuple // Result only: realized output rows
}

// ActionKey is the delta-cache / ledger identity of an active invocation —
// the same key the continuous executor caches invocation results under.
func (r *Record) ActionKey() string { return query.ActionKey(r.BP, r.Ref, r.Input) }

// encode appends the record's payload (without framing) to the encoder.
func (r *Record) encode(e *encoder) {
	e.u8(byte(r.Type))
	e.varint(int64(r.At))
	switch r.Type {
	case TypeDDL:
		e.str(r.Text)
	case TypeTickBegin, TypeTickEnd:
	case TypeInsert, TypeDelete:
		e.str(r.Rel)
		e.tuple(r.Tuple)
	case TypeIntent:
		e.str(r.Query)
		e.uvarint(uint64(r.Node))
		e.str(r.BP)
		e.str(r.Ref)
		e.tuple(r.Input)
	case TypeResult:
		e.str(r.Query)
		e.uvarint(uint64(r.Node))
		e.str(r.BP)
		e.str(r.Ref)
		e.tuple(r.Input)
		e.bool(r.OK)
		e.rows(r.Rows)
	}
}

// DecodeRecord parses one framed payload back into a Record. Any structural
// problem — unknown type, short buffer, oversized count, trailing garbage —
// is an error; the log scanner treats it as corruption and truncates there.
func DecodeRecord(payload []byte) (Record, error) {
	d := decoder{buf: payload}
	var r Record
	r.Type = Type(d.u8())
	r.At = service.Instant(d.varint())
	switch r.Type {
	case TypeDDL:
		r.Text = d.str()
	case TypeTickBegin, TypeTickEnd:
	case TypeInsert, TypeDelete:
		r.Rel = d.str()
		r.Tuple = d.tuple()
	case TypeIntent:
		r.Query = d.str()
		r.Node = int(d.uvarint())
		r.BP = d.str()
		r.Ref = d.str()
		r.Input = d.tuple()
	case TypeResult:
		r.Query = d.str()
		r.Node = int(d.uvarint())
		r.BP = d.str()
		r.Ref = d.str()
		r.Input = d.tuple()
		r.OK = d.bool()
		r.Rows = d.rows()
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", uint8(r.Type))
	}
	if d.err != nil {
		return Record{}, fmt.Errorf("wal: %s record: %w", r.Type, d.err)
	}
	if d.pos != len(d.buf) {
		return Record{}, fmt.Errorf("wal: %s record: %d trailing bytes", r.Type, len(d.buf)-d.pos)
	}
	return r, nil
}

// encodeRecord renders the record payload (unframed).
func encodeRecord(r *Record) []byte {
	e := encoder{}
	r.encode(&e)
	return e.buf
}

// ---------------------------------------------------------------------------
// Compact binary primitives. Hand-rolled rather than gob: the value package
// has unexported fields, and a fixed byte-level format keeps the decoder
// fuzzable and the on-disk frames stable across Go versions.

type encoder struct{ buf []byte }

func (e *encoder) u8(b byte)        { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) bool(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) value(v value.Value) {
	e.u8(byte(v.Kind()))
	switch v.Kind() {
	case value.Null:
	case value.Bool:
		e.bool(v.Bool())
	case value.Int:
		e.varint(v.Int())
	case value.Real:
		e.u64(math.Float64bits(v.Real()))
	case value.String:
		e.str(v.Str())
	case value.Service:
		e.str(v.ServiceRef())
	case value.Blob:
		e.bytes(v.Blob())
	}
}

func (e *encoder) tuple(t value.Tuple) {
	e.uvarint(uint64(len(t)))
	for _, v := range t {
		e.value(v)
	}
}

func (e *encoder) rows(rs []value.Tuple) {
	e.uvarint(uint64(len(rs)))
	for _, t := range rs {
		e.tuple(t)
	}
}

// decoder reads the primitives back with a sticky error: after the first
// failure every read returns a zero value, and the caller checks err once.
// Counts are validated against the remaining buffer before allocating, so
// fuzzed garbage cannot demand huge slices.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("short buffer reading byte at %d", d.pos)
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("short buffer reading u64 at %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// count reads a collection length and checks it against the minimum bytes
// each element needs, bounding allocation by the buffer size.
func (d *decoder) count(minPerElem int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if remaining := len(d.buf) - d.pos; n > uint64(remaining/minPerElem)+1 {
		d.fail("count %d exceeds remaining %d bytes", n, remaining)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.buf) {
		d.fail("short buffer reading %d-byte string at %d", n, d.pos)
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.fail("short buffer reading %d-byte blob at %d", n, d.pos)
		return nil
	}
	b := append([]byte(nil), d.buf[d.pos:d.pos+n]...)
	d.pos += n
	return b
}

func (d *decoder) value() value.Value {
	k := value.Kind(d.u8())
	if d.err != nil {
		return value.NewNull()
	}
	switch k {
	case value.Null:
		return value.NewNull()
	case value.Bool:
		return value.NewBool(d.bool())
	case value.Int:
		return value.NewInt(d.varint())
	case value.Real:
		return value.NewReal(math.Float64frombits(d.u64()))
	case value.String:
		return value.NewString(d.str())
	case value.Service:
		return value.NewService(d.str())
	case value.Blob:
		return value.NewBlob(d.bytes())
	}
	d.fail("unknown value kind %d", uint8(k))
	return value.NewNull()
}

func (d *decoder) tuple() value.Tuple {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	t := make(value.Tuple, n)
	for i := range t {
		t[i] = d.value()
	}
	return t
}

func (d *decoder) rows() []value.Tuple {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	rs := make([]value.Tuple, n)
	for i := range rs {
		rs[i] = d.tuple()
	}
	return rs
}
