package query_test

import (
	"testing"

	"serena/internal/query"
	"serena/internal/value"
	"serena/internal/wal"
)

// Checkpoints persist invocation-cache keys, so the bytes of an
// invocation identity must never change. This pins them for one input
// holding every kind.
func TestActionKeyBytesArePinned(t *testing.T) {
	input := value.Tuple{
		value.NewString("hi"), value.NewInt(-3), value.NewReal(1.5), value.NewNull(),
		value.NewBool(true), value.NewService("s"), value.NewBlob([]byte{0x01}),
	}
	const want = "sendMessage[messenger]|email|shi\x1fi-3\x1fr3ff8000000000000\x1fn\x1fbT\x1fvs\x1fx\x01"
	if got := query.ActionKey("sendMessage[messenger]", "email", input); got != want {
		t.Fatalf("ActionKey = %q, want %q", got, want)
	}
	a := query.Action{BP: "sendMessage[messenger]", Ref: "email", Input: input}
	if a.Key() != want {
		t.Fatalf("Action.Key = %q, want %q", a.Key(), want)
	}
	r := wal.Record{BP: a.BP, Ref: a.Ref, Input: input}
	if r.ActionKey() != want {
		t.Fatalf("Record.ActionKey = %q, want %q", r.ActionKey(), want)
	}
}
