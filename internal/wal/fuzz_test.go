package wal

import (
	"reflect"
	"testing"

	"serena/internal/value"
)

// fuzzSeedFrames renders a few realistic log prefixes for the frame fuzzer.
func fuzzSeedFrames() [][]byte {
	in := value.Tuple{value.NewInt(7), value.NewString("x")}
	recs := []Record{
		{Type: TypeDDL, At: 1, Text: "PROTOTYPE p( ) : ( x INTEGER );"},
		{Type: TypeTickBegin, At: 2},
		{Type: TypeInsert, At: 2, Rel: "nums", Tuple: in},
		{Type: TypeIntent, At: 2, Query: "q", Node: 0, BP: "bp[s]", Ref: "r", Input: in},
		{Type: TypeResult, At: 2, Query: "q", Node: 0, BP: "bp[s]", Ref: "r", Input: in, OK: true,
			Rows: []value.Tuple{{value.NewBool(true)}}},
		{Type: TypeTickEnd, At: 2},
	}
	var full []byte
	for i := range recs {
		full = appendFrame(full, encodeRecord(&recs[i]))
	}
	torn := append(append([]byte(nil), full...), full[:frameHeaderSize+2]...)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x20
	return [][]byte{
		full,
		torn,
		flipped,
		// A length field claiming far more than the buffer holds.
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'x'},
		{},
	}
}

// FuzzScanFrames asserts the frame scanner never panics, never reads past
// the buffer, and always reports a consistent consumed prefix: rescanning
// it yields the same frames, and the prefix itself is fully intact.
func FuzzScanFrames(f *testing.F) {
	for _, s := range fuzzSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		consumed := ScanFrames(data, func(payload []byte) error {
			n++
			return nil
		})
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		var n2 int
		if c2 := ScanFrames(data[:consumed], func([]byte) error { n2++; return nil }); c2 != consumed || n2 != n {
			t.Fatalf("rescan of intact prefix: consumed %d/%d frames %d/%d", c2, consumed, n2, n)
		}
	})
}

// FuzzDecodeRecord asserts the record decoder never panics and that any
// accepted record survives a re-encode/decode cycle unchanged (the codec is
// self-consistent even when the accepted input used a non-canonical varint).
func FuzzDecodeRecord(f *testing.F) {
	in := allKindsTuple()
	for _, r := range []Record{
		{Type: TypeDDL, At: 1, Text: "DROP RELATION r;"},
		{Type: TypeTickBegin, At: 2},
		{Type: TypeTickEnd, At: -3},
		{Type: TypeInsert, At: 4, Rel: "nums", Tuple: in},
		{Type: TypeDelete, At: 4, Rel: "nums", Tuple: in},
		{Type: TypeIntent, At: 5, Query: "q", Node: 3, BP: "bp[s]", Ref: "svc", Input: in},
		{Type: TypeResult, At: 5, Query: "q", Node: 3, BP: "bp[s]", Ref: "svc", Input: in, OK: true, Rows: []value.Tuple{in}},
	} {
		rec := r
		f.Add(encodeRecord(&rec))
	}
	// Structurally hostile seeds: unknown type, oversized count, truncation.
	f.Add([]byte{99, 0})
	f.Add([]byte{byte(TypeResult), 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(TypeInsert), 0, 4, 'n', 'u'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		back, err := DecodeRecord(encodeRecord(&rec))
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("re-encode changed record:\n was %+v\n now %+v", rec, back)
		}
	})
}

// FuzzDecodeCheckpoint asserts the checkpoint decoder never panics and
// never over-allocates on hostile counts.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := &Checkpoint{NextSeq: 3, Catalog: "-- ddl", State: testState()}
	f.Add(encodeCheckpoint(good))
	payload := encodeCheckpoint(good)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := decodeCheckpoint(payload, checkpointVersion)
		if err != nil {
			return
		}
		back, err := decodeCheckpoint(encodeCheckpoint(c), checkpointVersion)
		if err != nil {
			t.Fatalf("re-decode of accepted checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatal("re-encode changed checkpoint")
		}
	})
}
