package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"serena/internal/cq"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
)

// A checkpoint bounds replay: it snapshots the whole environment — the
// catalog as re-executable DDL and the executor's cross-tick state — so
// recovery restores it and replays only the WAL segments written after it.
// The file is written beside the segments via temp-file + rename, making it
// atomic: a crash mid-checkpoint leaves the previous one intact.
//
// The magic carries the format version. Version 2 added the query stats'
// Coalesced count; a version-1 checkpoint still loads, with Coalesced 0.
const (
	checkpointMagic   = "SRNCKPT2"
	checkpointVersion = 2
	checkpointFile    = "checkpoint"
	checkpointTmp     = "checkpoint.tmp"
)

// checkpointVersions maps every loadable magic to its format version.
var checkpointVersions = map[string]int{"SRNCKPT1": 1, checkpointMagic: checkpointVersion}

// Checkpoint is one durable snapshot of a pervasive environment.
type Checkpoint struct {
	// NextSeq is the first WAL segment to replay after restoring; older
	// segments are redundant and pruned.
	NextSeq uint64
	// Catalog is a DDL script re-creating services, prototypes, relations
	// and registered queries (no data — that lives in State).
	Catalog string
	// State is the executor snapshot.
	State cq.CheckpointState
}

func encodeCheckpoint(c *Checkpoint) []byte {
	e := encoder{}
	e.u64(c.NextSeq)
	e.str(c.Catalog)
	e.varint(int64(c.State.At))
	e.uvarint(uint64(len(c.State.Relations)))
	for _, rs := range c.State.Relations {
		e.str(rs.Name)
		e.bool(rs.Derived)
		e.varint(int64(rs.LastAt))
		e.uvarint(uint64(len(rs.Events)))
		for _, ev := range rs.Events {
			e.varint(int64(ev.At))
			e.u8(byte(ev.Kind))
			e.tuple(ev.Tuple)
		}
		e.uvarint(uint64(len(rs.Current)))
		for _, ct := range rs.Current {
			e.tuple(ct.Tuple)
			e.uvarint(uint64(ct.Count))
		}
	}
	e.uvarint(uint64(len(c.State.Queries)))
	for _, qs := range c.State.Queries {
		e.str(qs.Name)
		e.str(qs.Source)
		e.str(qs.OnError)
		e.str(qs.Into)
		e.varint(int64(qs.Retain))
		e.rows(qs.PrevOutput)
		e.uvarint(uint64(len(qs.InvCache)))
		for _, ce := range qs.InvCache {
			e.uvarint(uint64(ce.Node))
			e.str(ce.Key)
			// Distinguish "cached as empty/pinned" (nil rows) from rows
			// present: a pinned entry must survive the round trip as an
			// entry, so presence is the entry itself and rows may be empty.
			e.rows(ce.Rows)
		}
		e.uvarint(uint64(len(qs.StreamPrev)))
		for _, se := range qs.StreamPrev {
			e.uvarint(uint64(se.Node))
			e.tuple(se.Tuple)
		}
		e.varint(qs.Stats.Passive)
		e.varint(qs.Stats.Active)
		e.varint(qs.Stats.Memoized)
		e.varint(qs.Stats.Coalesced)
		e.uvarint(uint64(len(qs.Actions)))
		for _, a := range qs.Actions {
			e.str(a.BP)
			e.str(a.Ref)
			e.tuple(a.Input)
		}
	}
	return e.buf
}

// decodeCheckpoint decodes a checkpoint payload written in the given
// format version.
func decodeCheckpoint(payload []byte, version int) (*Checkpoint, error) {
	d := decoder{buf: payload}
	c := &Checkpoint{}
	c.NextSeq = d.u64()
	c.Catalog = d.str()
	c.State.At = service.Instant(d.varint())
	nrel := d.count(1)
	for i := 0; i < nrel && d.err == nil; i++ {
		var rs cq.RelationState
		rs.Name = d.str()
		rs.Derived = d.bool()
		rs.LastAt = service.Instant(d.varint())
		nev := d.count(1)
		for j := 0; j < nev && d.err == nil; j++ {
			rs.Events = append(rs.Events, stream.Event{
				At:    service.Instant(d.varint()),
				Kind:  stream.EventKind(d.u8()),
				Tuple: d.tuple(),
			})
		}
		ncur := d.count(1)
		for j := 0; j < ncur && d.err == nil; j++ {
			t := d.tuple()
			rs.Current = append(rs.Current, stream.Counted{Tuple: t, Count: int(d.uvarint())})
		}
		c.State.Relations = append(c.State.Relations, rs)
	}
	nq := d.count(1)
	for i := 0; i < nq && d.err == nil; i++ {
		var qs cq.QueryState
		qs.Name = d.str()
		qs.Source = d.str()
		qs.OnError = d.str()
		qs.Into = d.str()
		qs.Retain = service.Instant(d.varint())
		qs.PrevOutput = d.rows()
		nc := d.count(1)
		for j := 0; j < nc && d.err == nil; j++ {
			qs.InvCache = append(qs.InvCache, cq.InvCacheEntry{
				Node: int(d.uvarint()),
				Key:  d.str(),
				Rows: d.rows(),
			})
		}
		ns := d.count(1)
		for j := 0; j < ns && d.err == nil; j++ {
			qs.StreamPrev = append(qs.StreamPrev, cq.StreamPrevEntry{
				Node:  int(d.uvarint()),
				Tuple: d.tuple(),
			})
		}
		qs.Stats.Passive = d.varint()
		qs.Stats.Active = d.varint()
		qs.Stats.Memoized = d.varint()
		if version >= 2 {
			qs.Stats.Coalesced = d.varint()
		}
		na := d.count(1)
		for j := 0; j < na && d.err == nil; j++ {
			qs.Actions = append(qs.Actions, query.Action{
				BP:    d.str(),
				Ref:   d.str(),
				Input: d.tuple(),
			})
		}
		c.State.Queries = append(c.State.Queries, qs)
	}
	if d.err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", d.err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("wal: checkpoint: %d trailing bytes", len(d.buf)-d.pos)
	}
	return c, nil
}

// writeCheckpointFile atomically persists the checkpoint: write + fsync the
// temp file, rename over the live name, fsync the directory. Checkpoints
// always fsync, whatever the log's policy — they are the recovery floor.
func writeCheckpointFile(dir string, c *Checkpoint) error {
	payload := encodeCheckpoint(c)
	buf := make([]byte, 0, len(checkpointMagic)+frameHeaderSize+len(payload))
	buf = append(buf, checkpointMagic...)
	buf = appendFrame(buf, payload)
	tmp := filepath.Join(dir, checkpointTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadCheckpoint reads the checkpoint file, returning (nil, nil) when none
// exists. A corrupt checkpoint is an error; the caller degrades to replaying
// the full log rather than refusing to start.
func loadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var version int
	if len(data) >= len(checkpointMagic) {
		version = checkpointVersions[string(data[:len(checkpointMagic)])]
	}
	if version == 0 {
		return nil, fmt.Errorf("wal: checkpoint: bad magic")
	}
	rest := data[len(checkpointMagic):]
	var c *Checkpoint
	consumed := ScanFrames(rest, func(payload []byte) error {
		if c != nil {
			return fmt.Errorf("wal: checkpoint: extra frame")
		}
		dc, derr := decodeCheckpoint(payload, version)
		if derr != nil {
			return derr
		}
		c = dc
		return nil
	})
	if c == nil || consumed != len(rest) {
		return nil, fmt.Errorf("wal: checkpoint: corrupt frame")
	}
	return c, nil
}
