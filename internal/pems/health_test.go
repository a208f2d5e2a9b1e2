package pems_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/pems"
)

// TestHealthEndpoint drives the full health surface through the PEMS layer:
// /debug/health JSON, the Prometheus exposition on /metrics, SAL queries
// over the sys$ relations, and the .health text rendering.
func TestHealthEndpoint(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	defer p.Close()
	if _, err := p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("probe", "select[area = \"office\"](cameras)", false); err != nil {
		t.Fatal(err)
	}
	// SAL over a system relation: sys$ names lex as single identifiers.
	if _, err := p.RegisterQuery("deadman",
		`stream[insertion](select[state = "STALLED"](sys$streams))`, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetStreamCadence("temperatures", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	h := p.DebugHandler()

	get := func(path, accept string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s status %d", path, rec.Code)
		}
		return rec
	}

	// /debug/health: JSON report listing queries and the polled stream.
	rec := get("/debug/health", "")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/health content type %q", ct)
	}
	var rep pems.HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/debug/health bad JSON: %v", err)
	}
	if !rep.Enabled {
		t.Fatal("/debug/health enabled = false with telemetry on")
	}
	queries := map[string]string{}
	for _, q := range rep.Queries {
		queries[q.Query] = q.State
	}
	if queries["probe"] == "" || queries["deadman"] == "" {
		t.Fatalf("/debug/health missing queries: %v", rep.Queries)
	}
	foundTemps := false
	for _, s := range rep.Streams {
		if s.Stream == "temperatures" {
			foundTemps = true
			if s.Cadence != 2 {
				t.Fatalf("cadence = %d, want 2", s.Cadence)
			}
		}
		if strings.HasPrefix(s.Stream, "sys$") {
			t.Fatalf("system relation %s leaked into the stream health list", s.Stream)
		}
	}
	if !foundTemps {
		t.Fatalf("/debug/health missing temperatures stream: %v", rep.Streams)
	}

	// /metrics with Prometheus negotiation: text exposition with our prefix.
	rec = get("/metrics?format=prometheus", "")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus format content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "serena_cq_ticks_total") {
		t.Fatalf("exposition missing serena_cq_ticks_total:\n%s", rec.Body.String())
	}
	rec = get("/metrics", "application/openmetrics-text")
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatal("Accept: application/openmetrics-text not honoured")
	}

	// .health text rendering.
	text := p.HealthReportText()
	for _, want := range []string{"health @ instant", "probe", "deadman", "temperatures", "cadence=2"} {
		if !strings.Contains(text, want) {
			t.Fatalf(".health output missing %q:\n%s", want, text)
		}
	}
}

// TestHealthEndpointDisabled: without telemetry the endpoint answers
// enabled:false (not 404) and the helpers error cleanly.
func TestHealthEndpointDisabled(t *testing.T) {
	p := pems.New()
	defer p.Close()
	rec := httptest.NewRecorder()
	p.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/health status %d", rec.Code)
	}
	var rep pems.HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Enabled {
		t.Fatal("enabled = true with telemetry off")
	}
	if err := p.SetStreamCadence("x", 1); err == nil {
		t.Fatal("SetStreamCadence must error with telemetry off")
	}
	if !strings.Contains(p.HealthReportText(), "disabled") {
		t.Fatal("text report must say telemetry is disabled")
	}
	if p.Telemetry() != nil {
		t.Fatal("Telemetry() must be nil when disabled")
	}
}

// TestHealthDeadManOverWire is the in-process version of the e2e smoke: a
// polled stream dies (its only backing service is unregistered), and the
// registered dead-man query over sys$streams emits the STALLED tuple.
func TestHealthDeadManOverWire(t *testing.T) {
	p, sensors, _, _ := newScenarioPEMS(t)
	defer p.Close()
	if _, err := p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		t.Fatal(err)
	}
	deadman, err := p.RegisterQuery("deadman",
		`stream[insertion](select[state = "STALLED"](sys$streams))`, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetStreamCadence("temperatures", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Tick(); err != nil {
			t.Fatal(err)
		}
		if deadman.LastResult().Len() != 0 {
			t.Fatalf("dead-man fired with the feed alive (instant %d)", i)
		}
	}
	// Kill the feed: no sensors left → the poll source inserts nothing.
	for ref := range sensors {
		if err := p.Registry().Unregister(ref); err != nil {
			t.Fatal(err)
		}
	}
	fired := false
	for i := 0; i < 5; i++ {
		if _, err := p.Tick(); err != nil {
			t.Fatal(err)
		}
		if deadman.LastResult().Len() > 0 {
			tu := deadman.LastResult().Tuples()[0]
			if tu[0].Str() != "temperatures" || tu[1].Str() != "STALLED" {
				t.Fatalf("dead-man tuple = %v", tu)
			}
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("dead-man query never fired after the feed died")
	}
	// /debug/health agrees.
	rep := p.HealthReport()
	ok := false
	for _, s := range rep.Streams {
		if s.Stream == "temperatures" && s.State == "STALLED" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("health report does not show the stalled stream: %+v", rep.Streams)
	}
}

// TestOneShotOverSysMetrics checks that a one-shot query over the ephemeral
// sys$metrics stream sees the rows the relation retains, as it does for any
// other stream.
func TestOneShotOverSysMetrics(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	defer p.Close()
	tel, err := p.EnableSelfTelemetry(cq.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	x := tel.MetricsRelation()
	if x.EventCount() == 0 {
		t.Fatal("sys$metrics retains no events after 5 ticks")
	}
	want, err := algebra.New(x.Schema(), x.InsertedIn(-1, p.Now()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.OneShot("sys$metrics")
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() == 0 || !res.Relation.EqualContents(want) {
		t.Fatalf("one-shot sys$metrics = %d rows, want the %d retained rows (%d events)",
			res.Relation.Len(), want.Len(), x.EventCount())
	}
}
