// Command e2ebench is serena's end-to-end benchmark. It drives the real
// pems facade from outside: generated events enter through Offer and go
// through ingest drain, WAL, staged tick evaluation, β (in-process and over
// a loopback wire connection) and INTO materialization up to their effect,
// which is checked against a reference the generator computes from its own
// inputs.
//
//	go run . --workload alert --seed 1 --seconds 24 --trace 0
//
// Each run has a closed-loop "sat" phase and an open-loop "live" phase, each
// on a freshly set-up engine. With --trace 0 it reports the end-to-end
// metrics; with --trace 1 a traced run reports the per-layer ones. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"time"
)

// setupBatch is how many extra engines a run sets up only to time set-up,
// before each phase and once at the end; setup_s is the median over these
// and every phase's own set-up. A set-up takes a millisecond or less, and
// the host's speed drifts within a run, so the samples are spread over it.
const setupBatch = 50

func main() {
	name := flag.String("workload", "", "workload: alert, rollup or federated")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 24, "measuring time of the run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload alert|rollup|federated --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	d := &dirs{root: fmt.Sprintf(".bench_build/e2ebench-run-%d", os.Getpid())}
	defer d.remove()
	g := &generator{w: w, rng: rand.New(rand.NewSource(*seed))}
	var (
		r   result
		err error
	)
	if *traced == 1 {
		r, err = tracedRun(g, d, *seconds)
	} else {
		r, err = plainRun(g, d, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		d.remove()
		os.Exit(1)
	}
	r.print(*name)
}

// result is the run's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	outcome   outcome
	notes     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes a readable summary to standard error and the JSON result as
// the last line of standard output.
func (r *result) print(workload string) {
	r.Attempted, r.Failed = r.outcome.offered, r.outcome.failed
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "e2ebench %s: %d events offered, %d failed\n", workload, r.outcome.offered, r.outcome.failed)
	if r.outcome.first != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", r.outcome.first)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timeSetups sets up and closes extra engines to time set-up alone.
func timeSetups(g *generator, d *dirs, n int) ([]cost, error) {
	var out []cost
	for i := 0; i < n; i++ {
		e, took, err := setUp(g.w, d.next(), nil, g.w.newReference())
		if err != nil {
			return nil, err
		}
		e.abandon()
		out = append(out, took)
	}
	return out, nil
}

// satRounds runs closed-loop rounds while another round, as long as the
// last one, fits in budget; at least one.
func satRounds(g *generator, d *dirs, tr *tracer, budget time.Duration) ([]satRound, error) {
	var rounds []satRound
	start := time.Now()
	last := time.Duration(0)
	for len(rounds) == 0 || time.Since(start)+last <= budget {
		began := time.Now()
		r, err := runSatRound(g, d.next(), tr)
		if err != nil {
			return nil, err
		}
		last = time.Since(began)
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// eventsPerCPUSecond is each round's throughput per second of the process's
// CPU time, which co-tenants' CPU steal on a shared host does not inflate
// as it does wall time.
func eventsPerCPUSecond(rounds []satRound) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = float64(r.events) / r.ticks.cpu.Seconds()
	}
	return out
}

func eventsPerWallSecond(rounds []satRound) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = float64(r.events) / r.ticks.wall.Seconds()
	}
	return out
}

// plainRun measures the end-to-end metrics, tracing off: a third of the
// time in sat rounds, two thirds in the live phase, which needs the time to
// gather latency samples.
func plainRun(g *generator, d *dirs, seconds float64) (result, error) {
	var (
		r       result
		setups  []cost
		heap    []float64
		recover []cost
	)
	moreSetups := func() error {
		more, err := timeSetups(g, d, setupBatch)
		setups = append(setups, more...)
		return err
	}
	if err := moreSetups(); err != nil {
		return r, err
	}
	rounds, err := satRounds(g, d, nil, time.Duration(seconds/3*float64(time.Second)))
	if err != nil {
		return r, err
	}
	for _, sr := range rounds {
		setups = append(setups, sr.setup)
		heap = append(heap, sr.heapMB)
		recover = append(recover, sr.recover...)
		r.outcome.add(sr.outcome)
	}
	if err := moreSetups(); err != nil {
		return r, err
	}
	live, err := runLive(g, d.next(), nil, seconds*2/3)
	if err != nil {
		return r, err
	}
	setups = append(setups, live.setup)
	r.outcome.add(live.outcome)
	if err := moreSetups(); err != nil {
		return r, err
	}

	lat := millis(live.latencies)
	r.set("setup_s", median(seconds64(walls(setups))), "s")
	r.set("events_per_cpu_s", median(eventsPerCPUSecond(rounds)), "1/s")
	r.set("e2e_p50_ms", median(lat), "ms")
	r.set("heap_mb", median(heap), "MB")
	r.set("recover_cpu_s", median(seconds64(cpus(recover))), "s")
	r.note("sat: %d rounds of %d events, %.0f events per wall second, recovery wall %.3f s",
		len(rounds), rounds[0].events, median(eventsPerWallSecond(rounds)), median(seconds64(walls(recover))))
	r.note("live: %d latency samples, e2e p99 %.3f ms, generator lag p99 %.3f ms",
		len(lat), quantile(lat, 0.99), quantile(millis(live.lags), 0.99))
	return r, nil
}

// tracedRun measures the per-layer metrics: a third of the time in plain
// sat rounds, a third in traced sat rounds, a third in a traced live phase.
// The plain and traced sat throughputs give the tracing overhead.
func tracedRun(g *generator, d *dirs, seconds float64) (result, error) {
	var r result
	third := time.Duration(seconds / 3 * float64(time.Second))
	plain, err := satRounds(g, d, nil, third)
	if err != nil {
		return r, err
	}
	sat := newTracer()
	rounds, err := satRounds(g, d, sat, third)
	if err != nil {
		return r, err
	}
	liveTr := newTracer()
	live, err := runLive(g, d.next(), liveTr, seconds/3)
	if err != nil {
		return r, err
	}
	for _, sr := range append(plain, rounds...) {
		r.outcome.add(sr.outcome)
	}
	r.outcome.add(live.outcome)
	layerMetrics(&r, sat, liveTr, live)
	plainEPS, tracedEPS := median(eventsPerCPUSecond(plain)), median(eventsPerCPUSecond(rounds))
	r.set("bench.trace_overhead_frac", 1-tracedEPS/plainEPS, "ratio")
	r.set("bench.failed_frac", float64(r.outcome.failed)/float64(max(r.outcome.offered, 1)), "ratio")
	r.note("plain sat %.0f ev/cpu-s over %d rounds, traced sat %.0f ev/cpu-s over %d rounds", plainEPS, len(plain), tracedEPS, len(rounds))
	return r, nil
}

// layerMetrics derives the per-layer metrics: tick, service, wire and WAL
// figures from the traced sat rounds, ingest and generator figures from the
// traced live phase.
func layerMetrics(r *result, sat, live *tracer, lp livePhase) {
	events := float64(max(sat.events, 1))
	ticks := float64(max(len(sat.ticks), 1))
	tickMS := millis(sat.ticks)
	meanTick := sum(tickMS) / ticks
	evalMS := float64(sat.eval) / 1e6 / ticks

	r.set("stream.offer_us_p99", quantile(micros(live.offers), 0.99), "us")
	r.set("stream.backlog_max", float64(live.backlogMax), "count")
	r.set("stream.shed", float64(sat.counters["stream.ingest.shed"]+live.counters["stream.ingest.shed"]), "count")
	r.set("stream.retained_tuples", float64(sat.retained), "count")

	r.set("cq.tick_ms_p50", quantile(tickMS, 0.50), "ms")
	r.set("cq.tick_ms_p99", quantile(tickMS, 0.99), "ms")
	r.set("cq.eval_ms", evalMS, "ms")
	r.set("cq.tick_other_ms", meanTick-evalMS, "ms")
	r.set("cq.actions_retained", float64(sat.actions), "count")
	r.set("cq.delta_rows_per_event", float64(sat.counters["cq.delta.rows_in"])/events, "ratio")
	r.set("cq.delta_reinits", float64(sat.counters["cq.delta.reinits"]+live.counters["cq.delta.reinits"]), "count")
	r.set("cq.delta_fallback_ticks", float64(sat.counters["cq.delta.fallback_ticks"]+live.counters["cq.delta.fallback_ticks"]), "count")
	r.set("cq.invoke_cache_hit_ratio", ratio(sat.counters["cq.invoke_cache.hits"], sat.counters["cq.invoke_cache.misses"]), "ratio")

	betaMS := float64(sumDurations(sat.invokes)) / 1e6 / ticks
	r.set("algebra.self_ms", evalMS-betaMS, "ms")
	r.set("algebra.rows_per_event", float64(sat.counterSum("algebra.", "rows_in")+sat.counterSum("algebra.", ".rows"))/events, "ratio")
	memo := sat.counters["query.invoke.memoized"] + sat.counters["query.invoke.coalesced"]
	r.set("query.memo_ratio", ratio(memo, sat.counters["query.invoke.active"]+sat.counters["query.invoke.passive"]), "ratio")

	calls := append(append([]time.Duration(nil), sat.invokes...), live.invokes...)
	r.set("service.invoke_us_p50", quantile(micros(calls), 0.50), "us")
	r.set("service.invoke_us_p99", quantile(micros(calls), 0.99), "us")
	r.set("service.calls_per_event", float64(sat.items)/events, "ratio")
	r.set("service.failures", float64(sat.failures+live.failures), "count")

	trips := append(append([]time.Duration(nil), sat.roundTrips...), live.roundTrips...)
	r.set("wire.roundtrip_us_p50", quantile(micros(trips), 0.50), "us")
	r.set("wire.roundtrip_us_p99", quantile(micros(trips), 0.99), "us")
	r.set("wire.items_per_roundtrip", float64(sat.remoteItems)/float64(max(len(sat.roundTrips), 1)), "ratio")
	r.set("wire.retries", float64(sat.counters["wire.roundtrip.retries"]+live.counters["wire.roundtrip.retries"]), "count")

	r.set("wal.busy_ms_per_tick", float64(sat.walBusy)/1e6/ticks, "ms")
	r.set("wal.appends_per_event", float64(sat.counters["wal.appends"])/events, "ratio")
	r.set("wal.fsyncs", float64(sat.counters["wal.fsyncs"]+live.counters["wal.fsyncs"]), "count")
	r.set("wal.checkpoint_ms_p99", quantile(millis(append(append([]time.Duration(nil), sat.checkpoints...), live.checkpoints...)), 0.99), "ms")
	r.set("wal.checkpoint_bytes", float64(sat.ckptBytes), "B")
	r.set("wal.replay_records", float64(sat.counters["wal.replay.records"]), "count")

	r.set("bench.e2e_p99_ms", quantile(millis(lp.latencies), 0.99), "ms")
	r.set("bench.gen_lag_ms_p99", quantile(millis(lp.lags), 0.99), "ms")
	r.set("bench.latency_samples", float64(len(lp.latencies)), "count")
}

func walls(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.wall
	}
	return out
}

func cpus(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	return out
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
