package query

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// OpStats is one plan operator's cumulative execution record — the raw
// material of EXPLAIN ANALYZE: how many times it ran, how many rows its
// operands fed it and it produced, the wall time of the subtree rooted at
// it, and its last error. Two producers fill it: Context.Eval, for every
// node Context.Ops tracks (one-shot EXPLAIN ANALYZE), and the continuous
// executor's delta program, on every tick. RenderOps prints it. The fields
// are atomics, so a report may read them while evaluation runs.
type OpStats struct {
	calls, rowsIn, rowsOut, wallNS atomic.Int64
	err                            atomic.Pointer[error]
}

// Record adds one evaluation of the operator.
func (s *OpStats) Record(rowsIn, rowsOut int64, wall time.Duration, err error) {
	s.calls.Add(1)
	s.rowsIn.Add(rowsIn)
	s.rowsOut.Add(rowsOut)
	s.wallNS.Add(int64(wall))
	if err != nil {
		last := err // scoped here so the error-free path stays allocation-free
		s.err.Store(&last)
	}
}

// Calls returns how many times the operator evaluated.
func (s *OpStats) Calls() int64 { return s.calls.Load() }

// RowsIn returns the cumulative input cardinality (what the operands
// returned; 0 for a leaf of a one-shot plan, the consumed events for a
// continuous source).
func (s *OpStats) RowsIn() int64 { return s.rowsIn.Load() }

// RowsOut returns the cumulative output cardinality.
func (s *OpStats) RowsOut() int64 { return s.rowsOut.Load() }

// Wall returns the cumulative wall time of the subtree rooted here.
func (s *OpStats) Wall() time.Duration { return time.Duration(s.wallNS.Load()) }

// Err returns the operator's last evaluation error, nil if it never failed.
func (s *OpStats) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// TrackOps returns a fresh OpStats for every operator of the plan, to be
// installed as Context.Ops. Operators the evaluation never reaches keep
// calls=0.
func TrackOps(root Node) map[Node]*OpStats {
	ops := map[Node]*OpStats{}
	Walk(root, func(n Node) { ops[n] = &OpStats{} })
	return ops
}

// RenderOps formats a plan annotated with its operators' stats, one line
// per operator, children indented under their parent:
//
//	select[location = "office"]   calls=1 rows_in=4 rows_out=2 time=1.2ms self=3µs
//	  invoke[getTemperature]      calls=1 rows_in=4 rows_out=4 time=1.2ms self=1.2ms
//	    sensors                   calls=1 rows_in=0 rows_out=4 time=2µs self=2µs
//
// Only operators present in ops are rendered (a continuous window's base
// stream, which the delta program reads directly, has no line of its own).
// time is the subtree's wall time; self subtracts the rendered children's.
func RenderOps(root Node, ops map[Node]*OpStats) string {
	type line struct {
		label string
		st    *OpStats
		self  time.Duration
	}
	var lines []line
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		st := ops[n]
		if st == nil {
			return
		}
		i := len(lines)
		lines = append(lines, line{label: strings.Repeat("  ", depth) + opLabel(n), st: st, self: st.Wall()})
		for _, c := range n.Children() {
			if cs := ops[c]; cs != nil {
				lines[i].self -= cs.Wall()
			}
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	width := 0
	for _, l := range lines {
		width = max(width, utf8.RuneCountInString(l.label))
	}
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%-*s  calls=%d rows_in=%d rows_out=%d time=%s self=%s",
			width, l.label, l.st.Calls(), l.st.RowsIn(), l.st.RowsOut(), round(l.st.Wall()), round(max(l.self, 0)))
		if err := l.st.Err(); err != nil {
			fmt.Fprintf(&b, " error=%v", err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// opLabel renders just the operator head (no operands) for plan lines.
func opLabel(n Node) string {
	switch t := n.(type) {
	case *Base:
		return t.Name
	case *Project:
		return fmt.Sprintf("project[%s]", strings.Join(t.Attrs, ", "))
	case *Select:
		return fmt.Sprintf("select[%s]", t.Formula)
	case *Rename:
		return fmt.Sprintf("rename[%s -> %s]", t.Old, t.New)
	case *Join:
		return "join"
	case *SetOp:
		return setOpNames[t.Kind]
	case *Assign:
		if t.Src != "" {
			return fmt.Sprintf("assign[%s := %s]", t.Attr, t.Src)
		}
		return fmt.Sprintf("assign[%s := %s]", t.Attr, t.Const)
	case *Invoke:
		if t.ServiceAttr != "" {
			return fmt.Sprintf("invoke[%s@%s]", t.Proto, t.ServiceAttr)
		}
		return fmt.Sprintf("invoke[%s]", t.Proto)
	case *Aggregate:
		full := t.String()
		return full[:strings.Index(full, "](")+1]
	case *Window:
		return fmt.Sprintf("window[%d]", t.Period)
	case *Stream:
		return fmt.Sprintf("stream[%s]", t.Kind)
	}
	return fmt.Sprintf("%T", n)
}

// round trims durations to microsecond resolution for readability (0 stays
// 0s so plans of unevaluated operators remain unambiguous).
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
