package query_test

import (
	"strings"
	"testing"

	"serena/internal/query"
	"serena/internal/service"
)

// analyze evaluates q with every operator tracked, as EXPLAIN ANALYZE does.
func analyze(q query.Node, env query.Environment, reg *service.Registry) (*query.Result, map[query.Node]*query.OpStats, error) {
	ctx := query.NewContext(env, reg, 0)
	ctx.Ops = query.TrackOps(q)
	res, err := query.EvaluateCtx(q, ctx)
	return res, ctx.Ops, err
}

func TestInstrumentPreservesSemantics(t *testing.T) {
	env, reg, _ := paperSetup()
	plain, err := query.Evaluate(q2(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := analyze(q2(), env, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relation.EqualContents(plain.Relation) {
		t.Fatal("traced evaluation changed the result")
	}
	if !res.Actions.Equal(plain.Actions) {
		t.Fatal("traced evaluation changed the action set")
	}
}

func TestTracedRecordsCardinalities(t *testing.T) {
	env, reg, _ := paperSetup()
	plan := q2()
	res, ops, err := analyze(plan, env, reg)
	if err != nil {
		t.Fatal(err)
	}
	traced := ops[plan]
	if traced.Calls() != 1 {
		t.Fatalf("root calls = %d, want 1", traced.Calls())
	}
	if got := traced.RowsOut(); got != int64(res.Relation.Len()) {
		t.Fatalf("root rows_out = %d, want %d", got, res.Relation.Len())
	}
	// The root's input cardinality is its child's output cardinality.
	kids := plan.Children()
	if len(kids) != 1 {
		t.Fatalf("project arity = %d", len(kids))
	}
	child := ops[kids[0]]
	if traced.RowsIn() != child.RowsOut() {
		t.Fatalf("rows_in %d != child rows_out %d", traced.RowsIn(), child.RowsOut())
	}
	// Self time is the parent's wall minus its child's, never negative.
	if traced.Wall() < child.Wall() {
		t.Fatalf("parent wall %s < child wall %s", traced.Wall(), child.Wall())
	}
}

func TestTracedRender(t *testing.T) {
	env, reg, _ := paperSetup()
	plan := q2()
	_, ops, err := analyze(plan, env, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := query.RenderOps(plan, ops)
	for _, want := range []string{
		"project[photo]",
		"invoke[takePhoto]",
		"invoke[checkPhoto]",
		"cameras",
		"calls=1",
		"rows_out=",
		"time=",
		"self=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// The leaf renders deepest: indentation reflects the tree.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("Render produced %d lines, want 6 (one per operator):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "project[photo]") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.Contains(lines[5], "  cameras") {
		t.Fatalf("leaf line = %q", lines[5])
	}
}

func TestInstrumentActiveQuery(t *testing.T) {
	env, reg, dev := paperSetup()
	res, _, err := analyze(q1(), env, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.Len() != 2 {
		t.Fatalf("Q1 action set Len = %d, want 2", res.Actions.Len())
	}
	sent := 0
	for _, m := range dev.Messengers {
		sent += len(m.Outbox())
	}
	if sent != 2 {
		t.Fatalf("messages sent = %d, want 2", sent)
	}
}
