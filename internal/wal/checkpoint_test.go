package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"serena/internal/value"
)

// fillAll sets every field reachable from v to a distinct non-zero value:
// one element per slice, a fresh number or string per scalar, an
// all-kinds tuple per value.Tuple. A field of a type it cannot fill fails
// the test, so a state field added later is either filled or noticed.
func fillAll(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	if v.Type() == reflect.TypeOf(value.Tuple(nil)) {
		v.Set(reflect.ValueOf(allKindsTuple()))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s: unexported field", v.Type(), v.Type().Field(i).Name)
			}
			fillAll(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillAll(t, v.Index(0), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(*n))
	default:
		t.Fatalf("cannot fill %s (%s)", v.Type(), v.Kind())
	}
}

// TestCheckpointCodecKeepsEveryField round-trips a checkpoint in which
// every field of Checkpoint and its nested state structs is set, so a
// field the codec does not write fails here instead of silently resetting
// on recovery.
func TestCheckpointCodecKeepsEveryField(t *testing.T) {
	var want Checkpoint
	fields := 0
	fillAll(t, reflect.ValueOf(&want).Elem(), &fields)
	if q := want.State.Queries[0]; q.Stats.Coalesced == 0 || len(q.Actions) == 0 || want.State.Relations[0].Current[0].Count == 0 {
		t.Fatalf("fill left fields unset: %+v", want)
	}
	got, err := decodeCheckpoint(encodeCheckpoint(&want), checkpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("checkpoint codec lost fields (%d filled):\n got %+v\nwant %+v", fields, *got, want)
	}
}

// TestLoadVersion1Checkpoint loads testdata/checkpoint-v1, written from
// testState() by the version-1 codec, which had no Coalesced count. It
// must still load, with every other field intact.
func TestLoadVersion1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &Checkpoint{NextSeq: 7, Catalog: "-- ddl\nPROTOTYPE p( ) : ( x INTEGER );", State: testState()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 checkpoint:\n got %+v\nwant %+v", got, want)
	}
	// A rewrite is in the current format and keeps it all.
	if err := writeCheckpointFile(dir, got); err != nil {
		t.Fatal(err)
	}
	again, err := loadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("rewritten checkpoint:\n got %+v\nwant %+v", again, want)
	}
}
