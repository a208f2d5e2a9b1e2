package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"serena/internal/cq"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

func allKindsTuple() value.Tuple {
	return value.Tuple{
		value.NewNull(),
		value.NewBool(true),
		value.NewInt(-42),
		value.NewReal(3.25),
		value.NewString("a\x01b \"quoted\"\nline"),
		value.NewService("urn:svc/1"),
		value.NewBlob([]byte{0, 1, 0xff}),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	in := allKindsTuple()
	recs := []Record{
		{Type: TypeDDL, At: 3, Text: "PROTOTYPE p( ) : ( x INTEGER );"},
		{Type: TypeTickBegin, At: 4},
		{Type: TypeTickEnd, At: 4},
		{Type: TypeInsert, At: 5, Rel: "sensors", Tuple: in},
		{Type: TypeDelete, At: 5, Rel: "sensors", Tuple: in},
		{Type: TypeIntent, At: 6, Query: "alerts", Node: 2, BP: "sendMessage[m]", Ref: "email", Input: in},
		{Type: TypeResult, At: 6, Query: "alerts", Node: 2, BP: "sendMessage[m]", Ref: "email", Input: in,
			OK: true, Rows: []value.Tuple{{value.NewBool(true)}, {value.NewBool(false)}}},
		{Type: TypeResult, At: 7, Query: "alerts", Node: 0, BP: "b[s]", Ref: "r", OK: false},
	}
	for _, want := range recs {
		got, err := DecodeRecord(encodeRecord(&want))
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

func TestDecodeRecordRejectsDamage(t *testing.T) {
	good := encodeRecord(&Record{Type: TypeIntent, At: 1, Query: "q", Node: 1, BP: "b", Ref: "r",
		Input: value.Tuple{value.NewInt(7)}})
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty payload decoded")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil {
		t.Error("unknown type decoded")
	}
	if _, err := DecodeRecord(good[:len(good)-2]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := DecodeRecord(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestScanFramesTornTail(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	intact := len(buf)
	// A torn write: half a frame of a fourth record.
	torn := appendFrame(nil, []byte("four"))
	buf = append(buf, torn[:5]...)

	var got []string
	consumed := ScanFrames(buf, func(p []byte) error { got = append(got, string(p)); return nil })
	if consumed != intact {
		t.Fatalf("consumed %d, want %d", consumed, intact)
	}
	if strings.Join(got, ",") != "one,two,three" {
		t.Fatalf("payloads = %v", got)
	}
}

func TestScanFramesBitFlip(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, []byte("aaaa"))
	first := len(buf)
	buf = appendFrame(buf, []byte("bbbb"))
	buf[first+frameHeaderSize] ^= 0x40 // flip a payload bit of frame 2

	var n int
	if consumed := ScanFrames(buf, func([]byte) error { n++; return nil }); consumed != first {
		t.Fatalf("consumed %d, want %d", consumed, first)
	}
	if n != 1 {
		t.Fatalf("delivered %d frames, want 1", n)
	}
}

// testRel builds a one-column finite base relation.
func testRel(t *testing.T, name string) *stream.XDRelation {
	t.Helper()
	ext, err := schema.NewExtended(name, []schema.ExtAttr{{Attribute: schema.Attribute{Name: "n", Type: value.Int}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewFinite(ext)
}

// recordingHooks captures every replay callback.
type recordingHooks struct {
	restored   *cq.CheckpointState
	catalogDDL string
	ddl        []string
	events     []string
	ticks      []service.Instant
	ledgers    []cq.ReplayLedger
	seeded     []string
	advanced   []service.Instant
}

func (r *recordingHooks) hooks() RecoveryHooks {
	return RecoveryHooks{
		Restore: func(ddl string, st *cq.CheckpointState) error {
			r.catalogDDL = ddl
			r.restored = st
			return nil
		},
		ApplyDDL: func(text string, at service.Instant) error {
			r.ddl = append(r.ddl, text)
			return nil
		},
		ApplyEvent: func(rel string, kind stream.EventKind, at service.Instant, tu value.Tuple) error {
			verb := "insert"
			if kind == stream.Delete {
				verb = "delete"
			}
			r.events = append(r.events, verb+" "+rel+" "+tu.Key())
			return nil
		},
		ReplayTick: func(at service.Instant, ledger cq.ReplayLedger) error {
			r.ticks = append(r.ticks, at)
			r.ledgers = append(r.ledgers, ledger)
			return nil
		},
		SeedActive: func(queryName string, node int, bp, ref string, input value.Tuple, completed, ok bool, rows []value.Tuple) {
			r.seeded = append(r.seeded, queryName)
		},
		AdvanceTo: func(at service.Instant) { r.advanced = append(r.advanced, at) },
	}
}

func openFresh(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Recover(RecoveryHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh {
		t.Fatalf("expected fresh recovery, got %+v", info)
	}
	return m
}

func TestManagerLogReplay(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})

	if err := m.AppendDDL("PROTOTYPE p( ) : ( x INTEGER );", 1); err != nil {
		t.Fatal(err)
	}
	rel := testRel(t, "nums")
	m.AttachRelation(rel)
	if err := m.BeginTick(1); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(1, value.Tuple{value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	in := value.Tuple{value.NewString("x")}
	if err := m.ActiveIntent("alerts", 0, "bp[s]", "email", in, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.ActiveResult("alerts", 0, "bp[s]", "email", in, 1, true, []value.Tuple{{value.NewBool(true)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitTick(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh || info.Ticks != 1 || info.Orphans != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("info = %+v", info)
	}
	if len(rec.ddl) != 1 || !strings.HasPrefix(rec.ddl[0], "PROTOTYPE p") {
		t.Fatalf("ddl = %v", rec.ddl)
	}
	if len(rec.events) != 1 || !strings.HasPrefix(rec.events[0], "insert nums") {
		t.Fatalf("events = %v", rec.events)
	}
	if len(rec.ledgers) != 1 {
		t.Fatalf("ledgers = %v", rec.ledgers)
	}
	key := "bp[s]|email|" + in.Key()
	ent, ok := rec.ledgers[0][key]
	if !ok || !ent.Completed || !ent.OK || len(ent.Rows) != 1 {
		t.Fatalf("ledger[%q] = %+v (present %v)", key, ent, ok)
	}
	if len(rec.seeded) != 0 {
		t.Fatalf("seeded = %v", rec.seeded)
	}
}

func TestManagerTrailingCrashTickSeedsOrphans(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})
	rel := testRel(t, "nums")
	m.AttachRelation(rel)
	if err := m.BeginTick(1); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(1, value.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.ActiveIntent("q", 0, "bp[s]", "ref", nil, 1); err != nil {
		t.Fatal(err)
	}
	// No CommitTick: the process "crashed" mid-tick.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if info.Orphans != 1 || len(rec.seeded) != 1 || rec.seeded[0] != "q" {
		t.Fatalf("orphans = %d, seeded = %v", info.Orphans, rec.seeded)
	}
	// Trailing tick: its events are discarded (the restarted clock replays
	// the instant live) and the clock is NOT advanced.
	if len(rec.events) != 0 || len(rec.advanced) != 0 || len(rec.ticks) != 0 {
		t.Fatalf("events=%v advanced=%v ticks=%v", rec.events, rec.advanced, rec.ticks)
	}
}

func TestManagerMidLogFailedTickAdvances(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})
	rel := testRel(t, "nums")
	m.AttachRelation(rel)
	// Tick 1 starts, applies an event, fires an intent, then fails live
	// before TickEnd; tick 2 commits normally afterwards.
	if err := m.BeginTick(1); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(1, value.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.ActiveIntent("q", 0, "bp[s]", "ref", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginTick(2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitTick(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	// The mid-log failed tick applied its event and advanced the clock; its
	// intent is seeded. Tick 2 replays normally.
	if len(rec.events) != 1 || len(rec.advanced) != 1 || rec.advanced[0] != 1 {
		t.Fatalf("events=%v advanced=%v", rec.events, rec.advanced)
	}
	if len(rec.ticks) != 1 || rec.ticks[0] != 2 || info.Orphans != 1 {
		t.Fatalf("ticks=%v orphans=%d", rec.ticks, info.Orphans)
	}
}

func TestManagerTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})
	if err := m.AppendDDL("PROTOTYPE a( ) : ( x INTEGER );", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the tail: a torn half-frame after the valid record.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if info.TruncatedBytes != 3 || len(rec.ddl) != 1 {
		t.Fatalf("info=%+v ddl=%v", info, rec.ddl)
	}
}

func TestBeginTickRequiresRecover(t *testing.T) {
	m, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.BeginTick(1); err == nil {
		t.Fatal("BeginTick before Recover should fail")
	}
}

func testState() cq.CheckpointState {
	in := allKindsTuple()
	return cq.CheckpointState{
		At: 9,
		Relations: []cq.RelationState{{
			Name:   "nums",
			LastAt: 9,
			Events: []stream.Event{{At: 8, Kind: stream.Insert, Tuple: value.Tuple{value.NewInt(1)}}},
			Current: []stream.Counted{
				{Tuple: value.Tuple{value.NewInt(1)}, Count: 2},
			},
		}, {
			Name: "out_q", Derived: true, LastAt: 9,
		}},
		Queries: []cq.QueryState{{
			Name:       "q",
			Source:     "invoke[bp](nums)",
			OnError:    "SKIP",
			Into:       "out_q",
			Retain:     16,
			PrevOutput: []value.Tuple{in},
			InvCache: []cq.InvCacheEntry{
				{Node: 0, Key: "bp|ref|" + in.Key(), Rows: []value.Tuple{{value.NewInt(3)}}},
				// A pinned orphan: the entry exists with nil rows and must
				// survive the round trip as an entry.
				{Node: 0, Key: "bp|ref|k2"},
			},
			StreamPrev: []cq.StreamPrevEntry{{Node: 1, Tuple: value.Tuple{value.NewInt(4)}}},
			Stats:      query.InvokeStats{Passive: 3, Active: 2, Memoized: 1},
			Actions:    []query.Action{{BP: "bp", Ref: "ref", Input: in}},
		}},
	}
}

func TestCheckpointEncodeDecode(t *testing.T) {
	want := &Checkpoint{NextSeq: 7, Catalog: "-- ddl\nPROTOTYPE p( ) : ( x INTEGER );", State: testState()}
	got, err := decodeCheckpoint(encodeCheckpoint(want), checkpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round trip:\n got %+v\nwant %+v", got, want)
	}
	if got.State.Queries[0].InvCache[1].Rows != nil {
		t.Fatal("pinned-nil invcache entry grew rows")
	}
}

func TestCheckpointRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})
	if err := m.AppendDDL("PROTOTYPE a( ) : ( x INTEGER );", 1); err != nil {
		t.Fatal(err)
	}
	st := testState()
	if err := m.Checkpoint("-- catalog", st); err != nil {
		t.Fatal(err)
	}
	// Rotation: the pre-checkpoint segment is pruned, a fresh one is live.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after checkpoint = %v", segs)
	}
	if err := m.AppendDDL("PROTOTYPE b( ) : ( y INTEGER );", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if !info.HadCheckpoint || info.CheckpointAt != st.At {
		t.Fatalf("info = %+v", info)
	}
	if rec.catalogDDL != "-- catalog" || rec.restored == nil {
		t.Fatalf("restore: ddl=%q restored=%v", rec.catalogDDL, rec.restored)
	}
	if !reflect.DeepEqual(*rec.restored, st) {
		t.Fatalf("restored state:\n got %+v\nwant %+v", *rec.restored, st)
	}
	// Only the post-checkpoint DDL replays.
	if len(rec.ddl) != 1 || !strings.HasPrefix(rec.ddl[0], "PROTOTYPE b") {
		t.Fatalf("ddl = %v", rec.ddl)
	}
}

func TestCorruptCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	m := openFresh(t, dir, Options{Fsync: SyncOff})
	if err := m.AppendDDL("PROTOTYPE a( ) : ( x INTEGER );", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint("-- catalog", testState()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Open degrades to full-log replay. The checkpoint rotation pruned the
	// pre-checkpoint segment, so only post-checkpoint records survive — but
	// the store still starts.
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rec recordingHooks
	info, err := m2.Recover(rec.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if info.HadCheckpoint {
		t.Fatalf("corrupt checkpoint should not restore: %+v", info)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "": SyncInterval,
		"off": SyncOff, "none": SyncOff, "OFF": SyncOff,
	}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		if back, err := ParseSyncPolicy(p.String()); err != nil || back != p {
			t.Errorf("round trip %v → %q → %v, %v", p, p.String(), back, err)
		}
	}
}

func TestSyncPoliciesWriteDurably(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := openFresh(t, dir, Options{Fsync: pol})
			if err := m.BeginTick(1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.CommitTick(1); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			var rec recordingHooks
			info, err := m2.Recover(rec.hooks())
			if err != nil {
				t.Fatal(err)
			}
			if info.Ticks != 1 {
				t.Fatalf("ticks = %d under %s", info.Ticks, pol)
			}
		})
	}
}
