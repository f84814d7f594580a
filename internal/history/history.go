// Package history implements the archival information source of §6: the
// paper notes that "the retrieval of archival information can require the
// support of more powerful database query interfaces, to reduce search
// costs over a continuously growing mountain of data", and positions such
// capabilities as GRIP *extensions* rather than replacements. This package
// provides a bounded time-series archive of attribute samples, a recorder
// that populates it from a provider backend, and the GRIP extended
// operation that queries it (time-range scans with aggregation — exactly
// what the snapshot-oriented filter language cannot express).
package history

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mds2/internal/gris"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// Sample is one recorded observation of an attribute.
type Sample struct {
	At    time.Time
	Value float64
}

// Archive stores bounded per-series sample history. Series are keyed by
// (normalized DN, lowercased attribute).
type Archive struct {
	// MaxSamples bounds each series (oldest evicted first); default 4096.
	MaxSamples int

	mu     sync.Mutex
	series map[string][]Sample
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{MaxSamples: 4096, series: map[string][]Sample{}}
}

func seriesKey(dn ldap.DN, attr string) string {
	return dn.Normalize() + "\x00" + strings.ToLower(attr)
}

// Record appends a sample for one series.
func (a *Archive) Record(dn ldap.DN, attr string, at time.Time, value float64) {
	key := seriesKey(dn, attr)
	a.mu.Lock()
	defer a.mu.Unlock()
	s := append(a.series[key], Sample{At: at, Value: value})
	if max := a.maxSamples(); len(s) > max {
		s = s[len(s)-max:]
	}
	a.series[key] = s
}

func (a *Archive) maxSamples() int {
	if a.MaxSamples > 0 {
		return a.MaxSamples
	}
	return 4096
}

// RecordEntry samples every numeric attribute of an entry.
func (a *Archive) RecordEntry(e *ldap.Entry, at time.Time) {
	for _, attr := range e.Attributes() {
		if strings.EqualFold(attr.Name, "objectclass") {
			continue
		}
		if len(attr.Values) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(attr.Values[0]), 64)
		if err != nil {
			continue
		}
		a.Record(e.DN, attr.Name, at, v)
	}
}

// Query returns the samples of a series within [from, to], in time order.
func (a *Archive) Query(dn ldap.DN, attr string, from, to time.Time) []Sample {
	key := seriesKey(dn, attr)
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Sample
	for _, s := range a.series[key] {
		if !s.At.Before(from) && !s.At.After(to) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Series lists the recorded series keys as "dn|attr", sorted.
func (a *Archive) Series() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.series))
	for k := range a.series {
		out = append(out, strings.ReplaceAll(k, "\x00", "|"))
	}
	sort.Strings(out)
	return out
}

// Stats aggregates a time range.
type Stats struct {
	Count    int
	Min, Max float64
	Mean     float64
}

// Aggregate computes range statistics over a series.
func (a *Archive) Aggregate(dn ldap.DN, attr string, from, to time.Time) (Stats, bool) {
	samples := a.Query(dn, attr, from, to)
	if len(samples) == 0 {
		return Stats{}, false
	}
	st := Stats{Count: len(samples), Min: samples[0].Value, Max: samples[0].Value}
	sum := 0.0
	for _, s := range samples {
		if s.Value < st.Min {
			st.Min = s.Value
		}
		if s.Value > st.Max {
			st.Max = s.Value
		}
		sum += s.Value
	}
	st.Mean = sum / float64(len(samples))
	return st, true
}

// Recorder periodically samples a provider backend into an archive — the
// sensor-archival pipeline of monitoring systems like NetLogger that §6
// says the architecture should integrate rather than replace.
type Recorder struct {
	Archive  *Archive
	Backend  gris.Backend
	Interval time.Duration

	clock softstate.Clock
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// NewRecorder builds a recorder (does not start it).
func NewRecorder(archive *Archive, backend gris.Backend, interval time.Duration,
	clock softstate.Clock) *Recorder {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &Recorder{Archive: archive, Backend: backend, Interval: interval,
		clock: clock, stop: make(chan struct{})}
}

// RecordOnce samples the backend immediately.
func (r *Recorder) RecordOnce() error {
	now := r.clock.Now()
	entries, err := r.Backend.Entries(&gris.Query{
		Base: r.Backend.Suffix(), Scope: ldap.ScopeWholeSubtree, Now: now})
	if err != nil {
		return err
	}
	for _, e := range entries {
		r.Archive.RecordEntry(e, now)
	}
	return nil
}

// Start launches the sampling loop.
func (r *Recorder) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			_ = r.RecordOnce() // a failed provider is retried next tick
			select {
			case <-r.stop:
				return
			case <-r.clock.After(r.Interval):
			}
		}
	}()
}

// Stop halts the loop.
func (r *Recorder) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// OIDHistory identifies the archival GRIP extension.
const OIDHistory = "1.3.6.1.4.1.3536.2.2"

// Extension mounts the archive behind the GRIP extension point. The request
// is a small text form:
//
//	dn: perf=load, hn=hostX, o=grid
//	attr: load5
//	from: 2001-06-01T00:00:00Z
//	to: 2001-06-01T01:00:00Z
//	op: samples | stats
//
// The response is one sample per line ("RFC3339 value") or a single stats
// line ("count min max mean").
func Extension(a *Archive) gris.Extension {
	return func(_ *ldap.Request, value []byte) ([]byte, error) {
		req, err := parseRequest(string(value))
		if err != nil {
			return nil, err
		}
		switch req.op {
		case "samples":
			samples := a.Query(req.dn, req.attr, req.from, req.to)
			var b strings.Builder
			for _, s := range samples {
				fmt.Fprintf(&b, "%s %g\n", s.At.UTC().Format(time.RFC3339Nano), s.Value)
			}
			return []byte(b.String()), nil
		case "stats":
			st, ok := a.Aggregate(req.dn, req.attr, req.from, req.to)
			if !ok {
				return []byte("count=0\n"), nil
			}
			return []byte(fmt.Sprintf("count=%d min=%g max=%g mean=%g\n",
				st.Count, st.Min, st.Max, st.Mean)), nil
		default:
			return nil, fmt.Errorf("history: unknown op %q", req.op)
		}
	}
}

type request struct {
	dn       ldap.DN
	attr     string
	from, to time.Time
	op       string
}

func parseRequest(text string) (*request, error) {
	req := &request{op: "samples", from: time.Unix(0, 0),
		to: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.Index(line, ":")
		if idx <= 0 {
			return nil, fmt.Errorf("history: bad request line %q", line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:idx]))
		val := strings.TrimSpace(line[idx+1:])
		var err error
		switch key {
		case "dn":
			req.dn, err = ldap.ParseDN(val)
		case "attr":
			req.attr = val
		case "from":
			req.from, err = time.Parse(time.RFC3339Nano, val)
		case "to":
			req.to, err = time.Parse(time.RFC3339Nano, val)
		case "op":
			req.op = val
		default:
			err = fmt.Errorf("history: unknown key %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if req.dn.IsZero() || req.attr == "" {
		return nil, fmt.Errorf("history: request needs dn and attr")
	}
	return req, nil
}
