package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Handler is the live introspection endpoint mounted behind -obs-addr:
//
//	/metrics         Prometheus text exposition of the Registry
//	/debug/traces    recent + slow traces as JSON
//	/healthz         registered liveness probes; 200 all-pass, 503 otherwise
//
// What a directory believes about its VO — its registrations and caches —
// is not here: it is served over GRIP, under cn=monitor beneath the
// directory's suffix. Handler starts no goroutines and owns no listener;
// core.Daemon pairs it with http.Serve.
type Handler struct {
	reg    *Registry
	tracer *Tracer

	mu     sync.Mutex
	probes []namedProbe
}

type namedProbe struct {
	name string
	fn   func() (time.Duration, error)
}

// NewHandler serves reg and tracer (either may be nil).
func NewHandler(reg *Registry, tracer *Tracer) *Handler {
	return &Handler{reg: reg, tracer: tracer}
}

// AddHealthCheck registers a liveness probe run on every /healthz request
// (e.g. ldap.HealthCheck.Probe: dial + anonymous bind + RootDSE search
// against the server's own listener).
func (h *Handler) AddHealthCheck(name string, fn func() (time.Duration, error)) {
	if h == nil || fn == nil {
		return
	}
	h.mu.Lock()
	h.probes = append(h.probes, namedProbe{name: name, fn: fn})
	h.mu.Unlock()
}

// HealthResult is one probe's outcome in the /healthz body.
type HealthResult struct {
	Check     string  `json:"check"`
	Healthy   bool    `json:"healthy"`
	LatencyMs float64 `json:"latency_ms"`
	Error     string  `json:"error,omitempty"`
}

// healthz runs every registered probe; the status code carries the verdict
// so orchestrators need not parse the body.
func (h *Handler) healthz(w http.ResponseWriter) {
	h.mu.Lock()
	probes := make([]namedProbe, len(h.probes))
	copy(probes, h.probes)
	h.mu.Unlock()
	healthy := true
	results := make([]HealthResult, 0, len(probes))
	for _, p := range probes {
		d, err := p.fn()
		r := HealthResult{Check: p.name, Healthy: err == nil,
			LatencyMs: float64(d) / float64(time.Millisecond)}
		if err != nil {
			r.Error = err.Error()
			healthy = false
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Check < results[j].Check })
	if !healthy {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"healthy": false, "checks": results})
		return
	}
	writeJSON(w, map[string]any{"healthy": true, "checks": results})
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := h.reg.WritePrometheus(w); err != nil {
			return // client went away mid-write; nothing else to do
		}
	case "/debug/traces":
		writeJSON(w, map[string]any{
			"slow_threshold_ns": int64(h.slowThreshold()),
			"recent":            orEmpty(h.tracer.Recent()),
			"slow":              orEmpty(h.tracer.Slow()),
		})
	case "/healthz":
		h.healthz(w)
	case "/":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("mds2 obs endpoints: /metrics /debug/traces /healthz\n"))
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) slowThreshold() time.Duration {
	if h.tracer == nil {
		return 0
	}
	return h.tracer.SlowThreshold
}

func orEmpty(t []*TraceExport) []*TraceExport {
	if t == nil {
		return []*TraceExport{}
	}
	return t
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // best-effort: client may disconnect mid-body
}
