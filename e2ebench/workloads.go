package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wire"
)

// params are a workload's stated sizes. They are fixed here and restated in
// the workload's "why" line in BENCHMARK.json; none is derived from the code
// under test.
type params struct {
	stream string // the input stream the generator offers into
	query  string // the registered query whose effect is checked
	// durable runs the engine with a WAL (fsync=interval, checkpoint every
	// 50 ticks), as pemsd runs its embedded core.
	durable bool
	// sat: a round is batch events offered before each of roundTicks
	// Tick() calls, on a freshly set-up engine after warmTicks untimed
	// ticks of the same input. A round is fixed work, so state-size metrics
	// do not depend on how fast the program is.
	batch      int
	roundTicks int
	warmTicks  int
	// recoveries is how many fresh engines take over the state each sat
	// round leaves; recover_cpu_s is the median of their CPU times. A
	// workload whose round is long and whose recovery is short recovers
	// more often, so every run has a few seconds of recovery samples.
	recoveries int
	// live: events offered at rate per second while StartTicker ticks every
	// tick, on an engine that first ran prefillTicks closed-loop ticks of
	// batch events to fill its window.
	rate         float64
	tick         time.Duration
	prefillTicks int
}

// A workload declares an environment and generates its input events. Each
// phase builds a fresh engine from it and a fresh reference that records
// the effects every offered event must cause.
type workload interface {
	params() params
	// prototypes are declared in code before any service registers, as pemsd
	// does.
	prototypes() []*schema.Prototype
	// services registers the code services the environment needs (and the
	// loopback peer for federated). It runs before Recover, so it also runs
	// for a recovering engine.
	services(e *engine, ref reference) error
	// ddl declares relations, population and queries on a fresh engine.
	ddl() string
	// hook attaches the reference to the engine's observable effects that
	// are not service calls.
	hook(e *engine, ref reference)
	// event generates the seq-th input tuple.
	event(rng *rand.Rand, seq int64) value.Tuple
	newReference() reference
}

// reference is the generator-side record of the effects each offered event
// must cause, and the tally of the effects the engine produced.
type reference interface {
	// offered records the effects the event must cause; called before the
	// event is offered.
	offered(seq int64, t value.Tuple, tick int)
	// settled reports whether every offered event has had all its effects.
	settled() bool
	// verify compares the observed effects with the reference once the
	// engine is quiet and returns how many events failed (missing,
	// duplicated or wrong effects) with a description of the first failure.
	verify(e *engine) (failed int, first string)
	// timing supplies the live schedule, from which latencies are measured.
	timing() *schedule
}

// schedule is the live phase's open-loop send plan: event seq is due at
// start + (seq−base)·period. Latencies are taken from due time to effect.
type schedule struct {
	mu        sync.Mutex
	live      bool
	start     time.Time
	period    time.Duration
	base      int64 // seq of the first scheduled event
	latencies []time.Duration
}

func (s *schedule) begin(start time.Time, period time.Duration, base int64) {
	s.mu.Lock()
	s.live, s.start, s.period, s.base = true, start, period, base
	s.mu.Unlock()
}

// effect records one effect of event seq, observed now.
func (s *schedule) effect(seq int64, now time.Time) {
	s.mu.Lock()
	if s.live {
		s.latencies = append(s.latencies, now.Sub(s.start.Add(time.Duration(seq-s.base)*s.period)))
	}
	s.mu.Unlock()
}

func (s *schedule) recorded() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.latencies...)
}

var workloads = map[string]workload{
	"alert":     alert{},
	"rollup":    rollup{},
	"federated": federated{},
}

func locName(i int) string { return fmt.Sprintf("loc%02d", i) }

// ---------------------------------------------------------------------------
// alert: the paper's §5.2 surveillance query at scale.

const (
	alertLocations = 64
	alertContacts  = 2  // addresses per location manager
	alertHotEvery  = 20 // every 20th reading is above the 28.0 threshold: 5%
)

type alert struct{}

func (alert) params() params {
	return params{
		stream: "temperatures", query: "alerts", durable: true,
		batch: 200, roundTicks: 1000, recoveries: 5,
		rate: 3000, tick: 10 * time.Millisecond,
	}
}

func (alert) prototypes() []*schema.Prototype {
	return []*schema.Prototype{device.SendMessageProto()}
}

func (alert) services(e *engine, ref reference) error {
	r := ref.(*alertRef)
	return e.register(&messenger{ref: "pager", send: r.sent})
}

func (alert) ddl() string {
	var b strings.Builder
	b.WriteString(`
EXTENDED RELATION contacts ( name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL )
  USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
EXTENDED RELATION surveillance ( name STRING, location STRING );
EXTENDED STREAM temperatures ( id STRING, location STRING, temperature REAL )
  ON OVERLOAD SHED_NEWEST CAPACITY 4096;
`)
	for i := 0; i < alertLocations; i++ {
		fmt.Fprintf(&b, "INSERT INTO surveillance VALUES (\"m%02d\", \"%s\");\n", i, locName(i))
		for c := 0; c < alertContacts; c++ {
			fmt.Fprintf(&b, "INSERT INTO contacts VALUES (\"m%02d\", \"%s\", pager);\n", i, alertAddress(i, c))
		}
	}
	b.WriteString(`REGISTER QUERY alerts AS invoke[sendMessage](assign[text := id](join(contacts,
  join(surveillance, select[temperature > 28.0](window[1](temperatures))))));
`)
	return b.String()
}

func alertAddress(loc, c int) string { return fmt.Sprintf("m%02d.%d@site", loc, c) }

func (alert) hook(*engine, reference) {}

func (alert) event(rng *rand.Rand, seq int64) value.Tuple {
	// Hot readings are evenly spaced, so every stall of the live phase holds
	// its share of latency samples; which location runs hot is random.
	loc := rng.Intn(alertLocations)
	temp := 15 + rng.Float64()*12 // at most 27.0: no alert
	if seq%alertHotEvery == 0 {
		temp = 28.5 + rng.Float64()*5
	}
	return value.Tuple{
		value.NewString("r" + strconv.FormatInt(seq, 10)),
		value.NewString(locName(loc)),
		value.NewReal(temp),
	}
}

func (alert) newReference() reference {
	return &alertRef{want: map[string]int64{}, got: map[string]int{}}
}

// alertRef expects one sendMessage per (hot reading, contact address) and
// none for any other reading.
type alertRef struct {
	sched schedule
	mu    sync.Mutex
	want  map[string]int64 // "id|address" → seq of the reading
	got   map[string]int   // "id|address" → deliveries seen
	open  int              // wanted deliveries not yet seen
}

func (r *alertRef) timing() *schedule { return &r.sched }

func (r *alertRef) offered(seq int64, t value.Tuple, _ int) {
	if t[2].Real() <= 28.0 {
		return
	}
	loc, _ := strconv.Atoi(strings.TrimPrefix(t[1].Str(), "loc"))
	r.mu.Lock()
	for c := 0; c < alertContacts; c++ {
		r.want[t[0].Str()+"|"+alertAddress(loc, c)] = seq
		r.open++
	}
	r.mu.Unlock()
}

// sent is the messenger's delivery callback: the alert's effect.
func (r *alertRef) sent(address, text string) {
	now := time.Now()
	key := text + "|" + address
	r.mu.Lock()
	r.got[key]++
	seq, ok := r.want[key]
	first := ok && r.got[key] == 1
	if first {
		r.open--
	}
	r.mu.Unlock()
	if first {
		r.sched.effect(seq, now)
	}
}

func (r *alertRef) settled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open == 0
}

func (r *alertRef) verify(*engine) (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bad := map[int64]bool{}
	var first string
	for key, seq := range r.want {
		if n := r.got[key]; n != 1 {
			bad[seq] = true
			if first == "" {
				first = fmt.Sprintf("alert: delivery %s seen %d times, want 1", key, n)
			}
		}
	}
	failed := len(bad)
	for key, n := range r.got {
		if _, ok := r.want[key]; !ok {
			failed += n
			if first == "" {
				first = fmt.Sprintf("alert: unexpected delivery %s", key)
			}
		}
	}
	return failed, first
}

// messenger is the recording sendMessage gateway of the alert workload.
type messenger struct {
	ref  string
	send func(address, text string)
}

func (m *messenger) Ref() string                  { return m.ref }
func (m *messenger) PrototypeNames() []string     { return []string{"sendMessage"} }
func (m *messenger) Implements(proto string) bool { return proto == "sendMessage" }

func (m *messenger) Invoke(proto string, in value.Tuple, _ service.Instant) ([]value.Tuple, error) {
	if proto != "sendMessage" {
		return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, m.ref)
	}
	m.send(in[0].Str(), in[1].Str())
	return []value.Tuple{{value.NewBool(true)}}, nil
}

// ---------------------------------------------------------------------------
// rollup: a materialized windowed aggregate read by eight consumers.

const (
	rollupLocations = 64
	rollupWindow    = 64 // instants in readings[64]
	rollupConsumers = 8
)

type rollup struct{}

func (rollup) params() params {
	return params{
		stream: "readings", query: "rollup",
		batch: 256, roundTicks: 32, warmTicks: rollupWindow, recoveries: 25,
		rate: 512, tick: 500 * time.Millisecond, prefillTicks: rollupWindow,
	}
}

func (rollup) prototypes() []*schema.Prototype { return nil }

func (rollup) services(*engine, reference) error { return nil }

func (rollup) ddl() string {
	var b strings.Builder
	fmt.Fprintf(&b, `
EXTENDED STREAM readings ( location STRING, temperature REAL, seq INTEGER )
  ON OVERLOAD SHED_NEWEST CAPACITY 4096;
REGISTER QUERY rollup INTO climate RETAIN 4 INSTANTS AS
  SELECT location, mean(temperature), max(seq), count(*)
  FROM readings[%d] GROUP BY location;
`, rollupWindow)
	for i := 0; i < rollupConsumers; i++ {
		fmt.Fprintf(&b, "REGISTER QUERY warm%d AS SELECT location, mean_temperature FROM climate WHERE mean_temperature > %.1f;\n",
			i, 18+0.5*float64(i))
	}
	return b.String()
}

func (rollup) hook(e *engine, ref reference) {
	r := ref.(*rollupRef)
	sch := e.query.Output().Schema()
	locIdx, seqIdx := sch.RealIndex("location"), sch.RealIndex("max_seq")
	e.query.OnResult = func(_ service.Instant, _ *algebra.XRelation, inserted, _ []value.Tuple) {
		now := time.Now()
		for _, t := range inserted {
			r.updated(t[locIdx].Str(), whole(t[seqIdx]), now)
		}
	}
}

// whole reads an aggregate's numeric value (max and count may be REAL).
func whole(v value.Value) int64 {
	f, _ := v.AsFloat()
	return int64(f)
}

func (rollup) event(rng *rand.Rand, seq int64) value.Tuple {
	return value.Tuple{
		value.NewString(locName(rng.Intn(rollupLocations))),
		value.NewReal(15 + rng.Float64()*10),
		value.NewInt(seq),
	}
}

func (rollup) newReference() reference {
	return &rollupRef{pending: map[string][]int64{}, maxSeq: map[string]int64{}, byTick: map[int][]rollupReading{}}
}

type rollupReading struct {
	loc string
	seq int64
}

// rollupRef expects every reading to show in its location's climate row
// (max_seq reaching its seq), and, after a closed-loop round, climate's
// per-location count and max_seq to equal those of the last 64 ticks of
// readings.
type rollupRef struct {
	sched   schedule
	mu      sync.Mutex
	pending map[string][]int64 // location → offered seqs not yet reflected, ascending
	maxSeq  map[string]int64   // location → highest seq offered
	byTick  map[int][]rollupReading
	lastTck int
	regress int // climate rows whose max_seq went below an already reflected seq
}

func (r *rollupRef) timing() *schedule { return &r.sched }

func (r *rollupRef) offered(seq int64, t value.Tuple, tick int) {
	loc := t[0].Str()
	r.mu.Lock()
	r.pending[loc] = append(r.pending[loc], seq)
	r.maxSeq[loc] = seq
	if tick >= 0 {
		r.byTick[tick] = append(r.byTick[tick], rollupReading{loc, seq})
		delete(r.byTick, tick-rollupWindow)
		r.lastTck = tick
	}
	r.mu.Unlock()
}

// updated is the rollup query's effect: a new climate row for loc.
func (r *rollupRef) updated(loc string, maxSeq int64, now time.Time) {
	r.mu.Lock()
	p := r.pending[loc]
	i := 0
	for i < len(p) && p[i] <= maxSeq {
		i++
	}
	done := p[:i]
	r.pending[loc] = p[i:]
	r.mu.Unlock()
	for _, seq := range done {
		r.sched.effect(seq, now)
	}
}

func (r *rollupRef) settled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.pending {
		if len(p) > 0 {
			return false
		}
	}
	return true
}

func (r *rollupRef) verify(e *engine) (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	failed := 0
	var first string
	for loc, p := range r.pending {
		failed += len(p)
		if len(p) > 0 && first == "" {
			first = fmt.Sprintf("rollup: %d readings of %s never reached climate", len(p), loc)
		}
	}
	climate, ok := e.p.Executor().Relation("climate")
	if !ok {
		return failed + 1, "rollup: no climate relation"
	}
	sch := climate.Schema()
	locIdx, seqIdx, cntIdx := sch.RealIndex("location"), sch.RealIndex("max_seq"), sch.RealIndex("count")
	type row struct{ count, maxSeq int64 }
	got := map[string]row{}
	for _, t := range climate.Current() {
		got[t[locIdx].Str()] = row{whole(t[cntIdx]), whole(t[seqIdx])}
	}
	if len(r.byTick) == 0 {
		// Live phase: ticks are not known to the generator, so only the
		// newest reading per location is checked.
		for loc, seq := range r.maxSeq {
			if got[loc].maxSeq != seq {
				failed++
				if first == "" {
					first = fmt.Sprintf("rollup: %s max_seq %d, want %d", loc, got[loc].maxSeq, seq)
				}
			}
		}
		return failed, first
	}
	want := map[string]row{}
	for tick, rs := range r.byTick {
		if tick <= r.lastTck-rollupWindow {
			continue
		}
		for _, rd := range rs {
			w := want[rd.loc]
			w.count++
			if rd.seq > w.maxSeq {
				w.maxSeq = rd.seq
			}
			want[rd.loc] = w
		}
	}
	for loc, w := range want {
		if got[loc] != w {
			failed += int(w.count)
			if first == "" {
				first = fmt.Sprintf("rollup: %s (count, max_seq) = %v, want %v", loc, got[loc], w)
			}
		}
	}
	for loc := range got {
		if _, ok := want[loc]; !ok {
			failed++
			if first == "" {
				first = fmt.Sprintf("rollup: unexpected climate row for %s", loc)
			}
		}
	}
	return failed, first
}

// ---------------------------------------------------------------------------
// federated: passive β over the wire to cameras hosted by a loopback peer.

const federatedCameras = 64

type federated struct{}

func (federated) params() params {
	return params{
		stream: "motions", query: "photos",
		batch: 256, roundTicks: 400, recoveries: 10,
		rate: 2000, tick: 20 * time.Millisecond,
	}
}

func (federated) prototypes() []*schema.Prototype {
	return []*schema.Prototype{device.CheckPhotoProto(), device.TakePhotoProto()}
}

func camName(i int) string  { return fmt.Sprintf("cam%02d", i) }
func zoneName(i int) string { return fmt.Sprintf("zone%02d", i) }

// services starts the peer: a wire.Server on loopback hosting the cameras,
// reached over one client connection and registered from Describe(), as a
// pemsd peer would be.
func (w federated) services(e *engine, _ reference) error {
	reg := service.NewRegistry()
	for _, p := range w.prototypes() {
		if err := reg.RegisterPrototype(p); err != nil {
			return err
		}
	}
	for i := 0; i < federatedCameras; i++ {
		if err := reg.Register(device.NewCamera(camName(i), zoneName(i), 7, 0.2)); err != nil {
			return err
		}
	}
	e.server = wire.NewServer("cams", reg)
	addr, err := e.server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if e.client, err = wire.Dial(addr, 5*time.Second); err != nil {
		return err
	}
	_, infos, err := e.client.Describe()
	if err != nil {
		return err
	}
	for _, info := range infos {
		if err := e.register(wire.NewRemote(e.client, info)); err != nil {
			return err
		}
	}
	return nil
}

func (federated) ddl() string {
	return `
EXTENDED STREAM motions ( id STRING, camera SERVICE, area STRING,
  quality INTEGER VIRTUAL, delay REAL VIRTUAL )
  USING BINDING PATTERNS ( checkPhoto[camera] ( area ) : ( quality, delay ) )
  ON OVERLOAD SHED_NEWEST CAPACITY 4096;
REGISTER QUERY photos AS invoke[checkPhoto](window[1](motions));
`
}

func (federated) hook(e *engine, ref reference) {
	r := ref.(*federatedRef)
	sch := e.query.Output().Schema()
	idIdx, qIdx := sch.RealIndex("id"), sch.RealIndex("quality")
	e.query.OnResult = func(_ service.Instant, _ *algebra.XRelation, inserted, _ []value.Tuple) {
		now := time.Now()
		for _, t := range inserted {
			q := t[qIdx]
			r.photo(t[idIdx].Str(), !q.IsNull() && q.Int() >= 0 && q.Int() <= 10, now)
		}
	}
}

func (federated) event(rng *rand.Rand, seq int64) value.Tuple {
	c := rng.Intn(federatedCameras)
	return value.Tuple{
		value.NewString("m" + strconv.FormatInt(seq, 10)),
		value.NewService(camName(c)),
		value.NewString(zoneName(c)),
	}
}

func (federated) newReference() reference {
	return &federatedRef{want: map[string]int64{}, got: map[string]int{}}
}

// federatedRef expects every motion id in the photos output exactly once,
// with a realized quality.
type federatedRef struct {
	sched schedule
	mu    sync.Mutex
	want  map[string]int64 // motion id → seq
	got   map[string]int   // motion id → output rows seen
	bad   int              // rows without a realized quality, or of no offered motion
	open  int
}

func (r *federatedRef) timing() *schedule { return &r.sched }

func (r *federatedRef) offered(seq int64, t value.Tuple, _ int) {
	r.mu.Lock()
	r.want[t[0].Str()] = seq
	r.open++
	r.mu.Unlock()
}

func (r *federatedRef) photo(id string, realized bool, now time.Time) {
	r.mu.Lock()
	seq, ok := r.want[id]
	r.got[id]++
	first := ok && realized && r.got[id] == 1
	if !ok || !realized {
		r.bad++
	}
	if first {
		r.open--
	}
	r.mu.Unlock()
	if first {
		r.sched.effect(seq, now)
	}
}

func (r *federatedRef) settled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open == 0
}

func (r *federatedRef) verify(*engine) (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	failed := r.bad
	var first string
	if r.bad > 0 {
		first = fmt.Sprintf("federated: %d photo rows without a realized quality or offered motion", r.bad)
	}
	for id := range r.want {
		if n := r.got[id]; n != 1 {
			failed++
			if first == "" {
				first = fmt.Sprintf("federated: motion %s seen %d times, want 1", id, n)
			}
		}
	}
	return failed, first
}
