package query_test

import (
	"sync"
	"testing"

	"serena/internal/device"
	"serena/internal/obs"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/value"
)

// TestMetricsConcurrentExactness hammers ONE instrumented query.Context
// from MaxParallel goroutines — the way the invocation operator fans out
// under .parallel — and asserts the counters are exact, not approximate:
// every operation lands in exactly one bucket and no increment is lost.
// Run with -race (the CI gate does).
func TestMetricsConcurrentExactness(t *testing.T) {
	env, reg, _ := paperSetup()

	sensorBP := schema.BindingPattern{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}
	messageBP := schema.BindingPattern{Proto: device.SendMessageProto(), ServiceAttr: "messenger"}
	refs := []string{"sensor01", "sensor06", "sensor07", "sensor22"}

	ctx := query.NewContext(env, reg, 3)
	ctx.Parallelism = 8

	const perWorker = 250
	workers := ctx.MaxParallel()

	// Deltas, not absolute values: other tests in the package share the
	// process-wide registry.
	passiveBefore := obs.Default.Counter("query.invoke.passive").Value()
	memoBefore := obs.Default.Counter("query.invoke.memoized").Value()
	activeBefore := obs.Default.Counter("query.invoke.active").Value()
	coalescedBefore := obs.Default.Counter("query.invoke.coalesced").Value()
	callsBefore := obs.Default.Counter("service.invoke.calls").Value()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ref := refs[(w+i)%len(refs)]
				if _, err := ctx.InvokeTracked(sensorBP, ref, nil, nil); err != nil {
					t.Errorf("worker %d: passive invoke: %v", w, err)
					return
				}
				if i%50 == 0 { // a sprinkle of active invocations
					in := value.Tuple{value.NewString("x@example.org"), value.NewString("hi")}
					if _, err := ctx.InvokeTracked(messageBP, "email", in, nil); err != nil {
						t.Errorf("worker %d: active invoke: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Query-level obs counters are batched per evaluation; flush the deltas
	// the way EvaluateCtx does after q.Eval.
	ctx.PublishObsStats()

	totalPassiveOps := int64(workers * perWorker)
	totalActiveOps := int64(workers * (perWorker / 50))

	// Context-local stats: every passive op is counted exactly once, as a
	// physical invocation, a memo hit, or a join onto another worker's
	// in-flight call for the same key (coalesced).
	if got := ctx.Stats.Passive + ctx.Stats.Memoized + ctx.Stats.Coalesced; got != totalPassiveOps {
		t.Fatalf("passive+memoized+coalesced = %d (%d+%d+%d), want %d",
			got, ctx.Stats.Passive, ctx.Stats.Memoized, ctx.Stats.Coalesced, totalPassiveOps)
	}
	if ctx.Stats.Active != totalActiveOps {
		t.Fatalf("active = %d, want %d", ctx.Stats.Active, totalActiveOps)
	}

	// Process-wide obs counters must agree with the context-local ones.
	passiveDelta := obs.Default.Counter("query.invoke.passive").Value() - passiveBefore
	memoDelta := obs.Default.Counter("query.invoke.memoized").Value() - memoBefore
	activeDelta := obs.Default.Counter("query.invoke.active").Value() - activeBefore
	coalescedDelta := obs.Default.Counter("query.invoke.coalesced").Value() - coalescedBefore
	callsDelta := obs.Default.Counter("service.invoke.calls").Value() - callsBefore

	if passiveDelta != ctx.Stats.Passive {
		t.Fatalf("obs passive = %d, context counted %d", passiveDelta, ctx.Stats.Passive)
	}
	if memoDelta != ctx.Stats.Memoized {
		t.Fatalf("obs memoized = %d, context counted %d", memoDelta, ctx.Stats.Memoized)
	}
	if activeDelta != ctx.Stats.Active {
		t.Fatalf("obs active = %d, context counted %d", activeDelta, ctx.Stats.Active)
	}
	if coalescedDelta != ctx.Stats.Coalesced {
		t.Fatalf("obs coalesced = %d, context counted %d", coalescedDelta, ctx.Stats.Coalesced)
	}
	// Physical service calls = passive misses + active invocations (memo
	// hits and coalesced joins never reach the registry).
	if want := passiveDelta + activeDelta; callsDelta != want {
		t.Fatalf("service.invoke.calls delta = %d, want %d (passive %d + active %d)",
			callsDelta, want, passiveDelta, activeDelta)
	}

	// The action set is a SET: the same (bp, ref, input) hammered from every
	// worker collapses to one action (Definition 8).
	if ctx.Actions.Len() != 1 {
		t.Fatalf("action set Len = %d, want 1", ctx.Actions.Len())
	}
}
