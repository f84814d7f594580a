package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mds2/internal/softstate"
)

var errDown = errors.New("backend down")

func newTestHandler(t *testing.T) (*Handler, *softstate.FakeClock) {
	t.Helper()
	clock := softstate.NewFakeClock()
	reg := NewRegistry()
	reg.Counter("reqs_total").Add(4)
	reg.Histogram("lat_ns").Observe(time.Millisecond)
	tracer := NewTracer(clock, 10*time.Millisecond)
	tr := Begin(clock, tracer, "search", "peer:1", "", 0)
	clock.Advance(20 * time.Millisecond)
	tr.Finish()

	return NewHandler(reg, tracer), clock
}

func TestHandlerMetrics(t *testing.T) {
	h, _ := newTestHandler(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	types, samples := parseProm(t, rr.Body.String())
	if types["reqs_total"] != "counter" || types["lat_ns"] != "histogram" {
		t.Errorf("families missing: %v", types)
	}
	found := map[string]bool{}
	for _, s := range samples {
		found[s.name] = true
	}
	for _, want := range []string{"reqs_total", "lat_ns_bucket", "lat_ns_sum", "lat_ns_count"} {
		if !found[want] {
			t.Errorf("missing series %s in:\n%s", want, rr.Body.String())
		}
	}
}

func TestHandlerTraces(t *testing.T) {
	h, _ := newTestHandler(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	var body struct {
		SlowThresholdNs int64          `json:"slow_threshold_ns"`
		Recent          []*TraceExport `json:"recent"`
		Slow            []*TraceExport `json:"slow"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if body.SlowThresholdNs != int64(10*time.Millisecond) {
		t.Errorf("threshold = %d", body.SlowThresholdNs)
	}
	if len(body.Recent) != 1 || body.Recent[0].Op != "search" || body.Recent[0].Peer != "peer:1" {
		t.Errorf("recent = %+v", body.Recent)
	}
	if len(body.Slow) != 1 { // 20ms > 10ms threshold
		t.Errorf("slow = %+v", body.Slow)
	}
}

func TestHandlerIndexAnd404(t *testing.T) {
	h, _ := newTestHandler(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "/metrics") {
		t.Errorf("index: %d %q", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/nope", nil))
	if rr.Code != 404 {
		t.Errorf("unknown path status = %d", rr.Code)
	}
}

func TestHandlerHealthz(t *testing.T) {
	h, _ := newTestHandler(t)
	// No probes registered: trivially healthy (the process answered).
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("no-probe /healthz = %d", rr.Code)
	}

	h.AddHealthCheck("ldap", func() (time.Duration, error) {
		return 2 * time.Millisecond, nil
	})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("healthy /healthz = %d, body %s", rr.Code, rr.Body.String())
	}
	var body struct {
		Healthy bool           `json:"healthy"`
		Checks  []HealthResult `json:"checks"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Healthy || len(body.Checks) != 1 || body.Checks[0].Check != "ldap" ||
		!body.Checks[0].Healthy || body.Checks[0].LatencyMs != 2 {
		t.Fatalf("healthy body = %+v", body)
	}

	// One failing probe flips the status to 503 and names the failure.
	h.AddHealthCheck("backend", func() (time.Duration, error) {
		return time.Millisecond, errDown
	})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 {
		t.Fatalf("unhealthy /healthz = %d", rr.Code)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Healthy || len(body.Checks) != 2 {
		t.Fatalf("unhealthy body = %+v", body)
	}
	// Sorted by name: backend first, carrying its error.
	if body.Checks[0].Check != "backend" || body.Checks[0].Healthy ||
		!strings.Contains(body.Checks[0].Error, "backend down") {
		t.Fatalf("failing check = %+v", body.Checks[0])
	}
}
