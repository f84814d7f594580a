// Package qcache holds the repo's one TTL'd value table (Table) and, on top
// of it, the GIIS-tier query-result cache (Cache): a bounded,
// concurrency-safe map from normalized query regions to the immutable
// entry snapshots that answered them. The paper's aggregate directories
// exist precisely so discovery queries are answered from cached soft state
// instead of re-contacting every information provider (§3, §10.4), and the
// MDS2 performance studies identify caching as the dominant factor in
// throughput and response time under concurrent users.
//
// Freshness is two-tier: a cached result expires at
// min(now+TTL, contributing source's soft-state deadline), so a directory
// never serves a result that has outlived the registration that produced
// it. InvalidateOwner drops a source's keys early when its registration
// expires or is removed, instead of waiting out the TTL. Concurrent
// identical misses collapse through singleflight, so a query stampede costs
// one upstream fan-out; empty results are cached negatively with a short
// TTL; eviction is size-bounded CLOCK.
//
// Cached entries are shared immutable snapshots, sealed under -tags
// mdsdebug exactly like store hand-outs: they must be laundered with Clone
// or Select before mutation — the contract the mdsdebug seal holds at run
// time. Get hands out a fresh container (a pointer copy, never an entry
// clone), Claim the cache's own. Wire-backed entries (a chained
// reply kept as the frames it arrived in, see ldap.Entry) are cached as
// such, so a hit re-emits bytes instead of re-encoding attributes; the fill
// first copies their frames into one buffer the result owns
// (ldap.CompactSnapshots), so a cached result pins what it holds and not
// the connection read chunks it came through.
package qcache

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultTTL bounds result freshness when Config.TTL is zero.
	DefaultTTL = 15 * time.Second
	// DefaultNegTTL bounds negative-result freshness when Config.NegTTL is
	// zero: an absent entry should reappear quickly once registered.
	DefaultNegTTL = 5 * time.Second
	// DefaultMax bounds the cached key count when Config.Max is zero.
	DefaultMax = 4096
)

// Config assembles a Cache.
type Config struct {
	// Name prefixes the cache's obs series and names it in a directory's
	// monitor ("qcache" when empty). Non-alphanumeric runes become underscores in
	// metric names.
	Name string
	// Clock drives freshness; nil means wall clock.
	Clock softstate.Clock
	// TTL bounds result freshness (DefaultTTL when zero). A result
	// additionally expires at its soft-state bound (see Keep).
	TTL time.Duration
	// NegTTL bounds negative (empty) result freshness (DefaultNegTTL when
	// zero, never longer than TTL).
	NegTTL time.Duration
	// Max bounds the number of cached keys (DefaultMax when zero); excess
	// inserts evict CLOCK-cold keys.
	Max int
	// ServeStale returns the expired result when a refill fails, instead
	// of the error — §2.2: "users should have as much partial or even
	// inconsistent information as is available".
	ServeStale bool
	// Obs, when non-nil, registers hit/miss/coalesced/evicted/invalidated/
	// stale-skip counters and a live key gauge under Name_*.
	Obs *obs.Registry
}

// Region describes what a cached result answers, for keying. Base, Scope
// and Filter are the query; Owner groups keys by their upstream source
// (e.g. a child's service key) so the whole group can be dropped when that
// source disappears.
type Region struct {
	Owner  string
	Base   ldap.DN
	Scope  ldap.Scope
	Filter *ldap.Filter
}

// Key renders the normalized cache key for this region plus the requested
// attribute set and size limit: DNs normalize per ldap.DN.Normalize, the
// filter renders case-folded (attribute names and values carry
// caseIgnoreMatch semantics), and attributes fold, sort and dedup — so
// `(CN=Foo)` and `(cn=foo)` share one key. Two regions share a key exactly
// when those normalized components are equal: every component that can hold
// any byte goes in length-prefixed, so no value can pass for a separator.
func (r Region) Key(attrs []string, sizeLimit int64) string {
	var buf [256]byte
	return string(r.AppendKey(buf[:0], attrs, sizeLimit))
}

// AppendKey appends Key's bytes to dst, for a lookup (Cache.Claim) keyed
// from a buffer of the caller's: with attrs already in NormalizeAttrs form
// — what a chaining directory sends downstream — rendering a key into a
// buffer with room for it allocates nothing.
//
// The layout is owner, normalized base, scope, case-folded filter (empty
// for none), attribute count and names, size limit. Strings go in as
// "<len>:<bytes>" and integers as decimal text ended by ';' (the limit,
// last, by the end of the key).
func (r Region) AppendKey(dst []byte, attrs []string, sizeLimit int64) []byte {
	if !normalized(attrs) {
		attrs = NormalizeAttrs(attrs)
	}
	dst = appendField(dst, r.Owner)
	at := len(dst)
	dst = prefixLen(r.Base.AppendNormalized(dst), at)
	dst = append(strconv.AppendInt(dst, int64(r.Scope), 10), ';')
	at = len(dst)
	if r.Filter != nil {
		dst = lowerFrom(r.Filter.AppendString(dst), at)
	}
	dst = prefixLen(dst, at)
	dst = append(strconv.AppendInt(dst, int64(len(attrs)), 10), ';')
	for _, a := range attrs {
		dst = appendField(dst, a)
	}
	return strconv.AppendInt(dst, sizeLimit, 10)
}

// appendField appends s as "<len>:<s>".
func appendField(dst []byte, s string) []byte {
	return append(append(strconv.AppendInt(dst, int64(len(s)), 10), ':'), s...)
}

// prefixLen turns dst[at:], just rendered, into a field: "<len>:" goes in
// front of it.
func prefixLen(dst []byte, at int) []byte {
	var p [24]byte
	prefix := append(strconv.AppendInt(p[:0], int64(len(dst)-at), 10), ':')
	dst = append(dst, prefix...)
	copy(dst[at+len(prefix):], dst[at:len(dst)-len(prefix)])
	copy(dst[at:], prefix)
	return dst
}

// lowerFrom case-folds dst[at:] the way strings.ToLower folds valid UTF-8,
// in place when it is ASCII. A byte that is not UTF-8 stays as it is, where
// strings.ToLower would turn every such byte into U+FFFD and two different
// filters into one key.
func lowerFrom(dst []byte, at int) []byte {
	for i := at; i < len(dst); i++ {
		c := dst[i]
		if c >= utf8.RuneSelf {
			return append(dst[:i], lowerRunes(string(dst[i:]))...)
		}
		if 'A' <= c && c <= 'Z' {
			dst[i] = c + 'a' - 'A'
		}
	}
	return dst
}

// lowerRunes is strings.ToLower that keeps bytes that are not UTF-8.
func lowerRunes(s string) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			out = append(out, s[i])
		} else {
			out = utf8.AppendRune(out, unicode.ToLower(r))
		}
		i += n
	}
	return out
}

// normalized reports whether attrs is already in NormalizeAttrs form, judged
// without allocating: ASCII, lower case, strictly ascending and no "*" or
// empty name. Anything else (non-ASCII names included) is normalized again.
func normalized(attrs []string) bool {
	for i, a := range attrs {
		if a == "" || a == "*" || i > 0 && attrs[i-1] >= a {
			return false
		}
		for j := 0; j < len(a); j++ {
			if c := a[j]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
				return false
			}
		}
	}
	return true
}

// NormalizeAttrs folds an attribute selection to its semantic form: empty
// and "*" both select everything (nil), names compare case-insensitively,
// and order is irrelevant. Key keys by this form, so a directory that chains
// the normalized selection downstream gets a cached reply that is the same
// whichever spelling of the selection filled it.
func NormalizeAttrs(attrs []string) []string {
	if len(attrs) == 0 {
		return nil
	}
	folded := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if a == "*" || a == "" {
			return nil // selects all attributes, like an empty request
		}
		folded = append(folded, strings.ToLower(a))
	}
	sort.Strings(folded)
	out := folded[:1]
	for _, a := range folded[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// Cache is a bounded query-result cache, the entry-snapshot layer over a
// Table: it turns TTL, NegTTL and a result's soft-state bound into the
// table's expiry, makes every result it keeps own its bytes and seals it,
// and hands each reader a container of its own. Construct with New.
type Cache struct {
	cfg Config
	t   *Table[[]*ldap.Entry]

	// Counters (registered under Config.Obs when present).
	Hits        obs.Counter
	Misses      obs.Counter
	Coalesced   obs.Counter
	Evicted     obs.Counter
	Invalidated obs.Counter
	StaleSkips  obs.Counter // expired results passed over on lookup
	StaleServed obs.Counter // expired results served after a failed refill
}

// New builds a cache.
func New(cfg Config) *Cache {
	if cfg.Clock == nil {
		cfg.Clock = softstate.RealClock{}
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.NegTTL <= 0 {
		cfg.NegTTL = DefaultNegTTL
	}
	if cfg.NegTTL > cfg.TTL {
		cfg.NegTTL = cfg.TTL
	}
	if cfg.Max <= 0 {
		cfg.Max = DefaultMax
	}
	if cfg.Name == "" {
		cfg.Name = "qcache"
	}
	c := &Cache{cfg: cfg}
	c.t = NewTable[[]*ldap.Entry](TableConfig{Clock: cfg.Clock, Max: cfg.Max, ServeStale: cfg.ServeStale,
		Counters: Counters{Hits: &c.Hits, Misses: &c.Misses, Coalesced: &c.Coalesced, Evicted: &c.Evicted,
			Invalidated: &c.Invalidated, StaleSkips: &c.StaleSkips, StaleServed: &c.StaleServed}})
	if cfg.Obs != nil {
		p := metricPrefix(cfg.Name)
		cfg.Obs.RegisterCounter(p+"_hits_total", &c.Hits)
		cfg.Obs.RegisterCounter(p+"_misses_total", &c.Misses)
		cfg.Obs.RegisterCounter(p+"_coalesced_total", &c.Coalesced)
		cfg.Obs.RegisterCounter(p+"_evicted_total", &c.Evicted)
		cfg.Obs.RegisterCounter(p+"_invalidated_total", &c.Invalidated)
		cfg.Obs.RegisterCounter(p+"_stale_skips_total", &c.StaleSkips)
		cfg.Obs.RegisterCounter(p+"_stale_served_total", &c.StaleServed)
		cfg.Obs.GaugeFunc(p+"_keys", func() float64 { return float64(c.Len()) })
	}
	return c
}

func metricPrefix(name string) string {
	b := []byte(name)
	for i, r := range b {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Get returns the cached result for key when fresh, in a fresh container of
// shared immutable snapshot entries: a caller may sort, compact or truncate
// its container, but must Clone or Select an entry before mutating it (a
// wire-backed one included: Project and WithDN share its frame, only Clone
// and Select copy out of it). A cached negative result is a hit with no
// entries.
func (c *Cache) Get(key string) ([]*ldap.Entry, bool) {
	entries, ok := c.t.Get(key)
	if !ok {
		c.Misses.Inc()
	}
	return slices.Clone(entries), ok
}

// LookupStale is Get for a key rendered by Region.AppendKey that also serves
// an expired result on a ServeStale cache. Only a hit is counted.
func (c *Cache) LookupStale(key []byte) ([]*ldap.Entry, bool) {
	entries, ok := c.t.LookupStale(key)
	return slices.Clone(entries), ok
}

// Claim is Table.Claim for a key rendered by Region.AppendKey. It and the
// fill hand out the cache's own container, to be read, not written.
func (c *Cache) Claim(key []byte, owner string) ([]*ldap.Entry, *Fill[[]*ldap.Entry], Outcome) {
	return c.t.Claim(key, owner)
}

// GetOrFill returns the cached result for key, running fill on a miss (once,
// however many callers miss at once) and keeping what it returns as Keep
// does. The result is a container of the caller's own (see Get).
func (c *Cache) GetOrFill(key string, region Region, bound time.Time,
	fill func() ([]*ldap.Entry, error)) ([]*ldap.Entry, Outcome, error) {

	entries, how, err := c.t.GetOrFill(key, region.Owner, func() ([]*ldap.Entry, time.Time, error) {
		entries, err := fill()
		if err != nil {
			return nil, time.Time{}, err
		}
		return entries, c.keep(entries, bound), nil
	})
	return slices.Clone(entries), how, err
}

// Keep ends a fill the caller leads with entries, kept until min(now+TTL,
// bound) — NegTTL for an empty result — where a non-zero bound is the
// source's soft-state deadline, so a result never outlives its
// registration. The slice becomes the cache's (see keep).
func (c *Cache) Keep(f *Fill[[]*ldap.Entry], entries []*ldap.Entry, bound time.Time) {
	f.Keep(entries, c.keep(entries, bound))
}

// Put caches a result directly (a fill is the usual path; see Keep for
// bound semantics).
func (c *Cache) Put(key string, region Region, bound time.Time, entries []*ldap.Entry) {
	c.t.Put(key, region.Owner, entries, c.keep(entries, bound))
}

// keep readies entries to become a shared snapshot and returns when it
// expires: min(now+TTL, bound), NegTTL for an empty result. The entries get
// bytes of their own (ldap.CompactSnapshots), so what the cache keeps is the
// result and not the read chunks it arrived in, and are sealed (mdsdebug)
// so any later in-place mutation of a cached entry panics at the write.
func (c *Cache) keep(entries []*ldap.Entry, bound time.Time) time.Time {
	ldap.CompactSnapshots(entries)
	ldap.SealSnapshots(entries)
	ttl := c.cfg.TTL
	if len(entries) == 0 {
		ttl = c.cfg.NegTTL
	}
	expires := c.cfg.Clock.Now().Add(ttl)
	if !bound.IsZero() && bound.Before(expires) {
		expires = bound
	}
	return expires
}

// InvalidateOwner drops every key belonging to owner (or to an owner
// variant "owner|…"), the early-drop path when a registered source
// expires or is removed.
func (c *Cache) InvalidateOwner(owner string) int { return c.t.InvalidateOwner(owner) }

// Flush drops everything (tests and failover drills).
func (c *Cache) Flush() { c.t.Flush() }

// Len returns the resident key count.
func (c *Cache) Len() int { return c.t.Len() }

// Entries returns every resident positive result concatenated — the corpus
// view specialized services (e.g. the matchmaker extension) evaluate
// against. The slice is a fresh container of shared immutable snapshots.
func (c *Cache) Entries() []*ldap.Entry {
	var out []*ldap.Entry
	c.t.each(func(it item[[]*ldap.Entry]) { out = append(out, it.Value...) })
	return out
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Keys        int
	Hits        int64
	Misses      int64
	Coalesced   int64
	Evicted     int64
	Invalidated int64
	StaleSkips  int64
	StaleServed int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Keys:        c.Len(),
		Hits:        c.Hits.Value(),
		Misses:      c.Misses.Value(),
		Coalesced:   c.Coalesced.Value(),
		Evicted:     c.Evicted.Value(),
		Invalidated: c.Invalidated.Value(),
		StaleSkips:  c.StaleSkips.Value(),
		StaleServed: c.StaleServed.Value(),
	}
}

// Config returns the cache's configuration, defaults applied.
func (c *Cache) Config() Config { return c.cfg }

// Resident is one resident key, fresh or not.
type Resident struct {
	Key, Owner string
	Entries    int // 0 for a negative result
	Expires    time.Time
	Referenced bool // the CLOCK reference bit
}

// Residents lists every resident key, sorted by key.
func (c *Cache) Residents() []Resident {
	var out []Resident
	c.t.each(func(it item[[]*ldap.Entry]) {
		out = append(out, Resident{Key: it.Key, Owner: it.Owner, Entries: len(it.Value),
			Expires: it.Expires, Referenced: it.Referenced})
	})
	slices.SortFunc(out, func(a, b Resident) int { return strings.Compare(a.Key, b.Key) })
	return out
}
