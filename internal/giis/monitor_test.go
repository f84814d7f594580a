package giis

import (
	"slices"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// register offers the directory a registration for name lasting ttl.
func (r *rig) register(name string, ttl time.Duration) {
	r.t.Helper()
	now := r.clock.Now()
	if !r.giis.Ingest(&grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://" + name + "-node:389",
		MDSType: "gris", VO: "alliance", SuffixDN: "hn=" + name + ", o=center1",
		IssuedAt: now, ValidUntil: now.Add(ttl)}) {
		r.t.Fatalf("registration for %s refused", name)
	}
}

// monitor searches the directory's monitor subtree at base ("" is
// cn=monitor itself), returning the entries by DN.
func (r *rig) monitor(base string, scope ldap.Scope, filter string, limit int64, attrs ...string) (map[string]*ldap.Entry, ldap.Result) {
	r.t.Helper()
	if base == "" {
		base = "cn=monitor, vo=alliance"
	}
	entries, res := r.search(&ldap.SearchRequest{BaseDN: base, Scope: scope,
		Filter: ldap.MustParseFilter(filter), SizeLimit: limit, Attributes: attrs})
	out := map[string]*ldap.Entry{}
	for _, e := range entries {
		out[e.DN.String()] = e
	}
	return out, res
}

func registrationDN(name string) string {
	return "key=sim://" + name + "-node:389, cn=monitor, vo=alliance"
}

// TestMonitorListsRegistrations: every live registration is an entry under
// cn=monitor carrying its deadline as milliseconds from now and its refresh
// history exactly, and a lapsed one is gone at its deadline.
func TestMonitorListsRegistrations(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	joined := r.clock.Now()
	r.register("hostA", time.Hour)
	r.register("hostB", 2*time.Minute)
	r.clock.Advance(30 * time.Second)
	refreshed := r.clock.Now()
	r.register("hostA", time.Hour)
	r.clock.Advance(30 * time.Second)

	got, res := r.monitor("", ldap.ScopeWholeSubtree, "(objectclass=*)", 0)
	if res.Code != ldap.ResultSuccess || len(got) != 3 {
		t.Fatalf("monitor: %v, %d entries %v", res, len(got), got)
	}
	top := got["cn=monitor, vo=alliance"]
	if top == nil || top.First("live") != "2" || top.First("expiredtotal") != "0" {
		t.Fatalf("cn=monitor entry = %v", top)
	}
	for name, want := range map[string]map[string]string{
		"hostA": {"expiresinms": "3570000", "lastrefresh": stamp(refreshed), "refreshes": "2"},
		"hostB": {"expiresinms": "60000", "lastrefresh": stamp(joined), "refreshes": "1"},
	} {
		e := got[registrationDN(name)]
		if e == nil {
			t.Fatalf("no row for %s in %v", name, got)
		}
		want["key"], want["url"] = "sim://"+name+"-node:389", "sim://"+name+"-node:389"
		want["suffix"], want["mdstype"], want["vo"] = "hn="+name+", o=center1", "gris", "alliance"
		want["joinedat"] = stamp(joined)
		for attr, v := range want {
			if e.First(attr) != v {
				t.Errorf("%s %s = %q, want %q", name, attr, e.First(attr), v)
			}
		}
		if e.Has("recovered") {
			t.Errorf("%s is flagged recovered", name)
		}
	}

	// hostB's deadline is 60s away: at it, the row is gone.
	r.clock.Advance(60 * time.Second)
	got, _ = r.monitor("", ldap.ScopeWholeSubtree, "(objectclass=*)", 0)
	if _, ok := got[registrationDN("hostB")]; ok || len(got) != 2 {
		t.Fatalf("lapsed hostB still listed: %v", got)
	}
	if top := got["cn=monitor, vo=alliance"]; top.First("live") != "1" || top.First("expiredtotal") != "1" {
		t.Fatalf("cn=monitor after the lapse = %v", top)
	}
}

// TestMonitorFlagsRecoveredRegistrations: a registration restored from the
// durability log is listed recovered until its child refreshes it.
func TestMonitorFlagsRecoveredRegistrations(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.register("hostA", time.Hour)
	now := r.clock.Now()
	m := &grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://hostB-node:389", MDSType: "gris",
		SuffixDN: "hn=hostB, o=center1", IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	if n := r.giis.Receiver().Registry.Restore([]softstate.Item{{Key: m.ServiceURL, Payload: m,
		ExpiresAt: now.Add(time.Hour), JoinedAt: now, LastRefresh: now, Refreshes: 3}}, time.Minute); n != 1 {
		t.Fatalf("restored %d registrations", n)
	}
	got, _ := r.monitor("", ldap.ScopeSingleLevel, "(recovered=TRUE)", 0)
	if len(got) != 1 || got[registrationDN("hostB")] == nil || got[registrationDN("hostB")].First("refreshes") != "3" {
		t.Fatalf("recovered rows = %v", got)
	}
	r.register("hostB", time.Hour)
	if got, _ := r.monitor("", ldap.ScopeSingleLevel, "(recovered=TRUE)", 0); len(got) != 0 {
		t.Fatalf("refreshed registration still recovered: %v", got)
	}
}

// TestMonitorListsQueryCacheKeys: the query cache is an entry under
// cn=monitor with its configuration and counters, and a fill appears below
// it as a key owned by the child that answered.
func TestMonitorListsQueryCacheKeys(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(time.Minute))
	r.addHost("hostA", 1)
	if entries, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("fill: %d entries, %v", len(entries), res)
	}
	r.clock.Advance(10 * time.Second)

	const cache = "cn=giis_query, cn=monitor, vo=alliance"
	got, res := r.monitor(cache, ldap.ScopeBaseObject, "(objectclass=mdsquerycache)", 0)
	c := got[cache]
	if res.Code != ldap.ResultSuccess || c == nil {
		t.Fatalf("cache entry: %v %v", res, got)
	}
	for attr, want := range map[string]string{"ttlms": "60000", "max": "4096", "keys": "1", "misses": "1", "hits": "0"} {
		if c.First(attr) != want {
			t.Errorf("cache %s = %q, want %q", attr, c.First(attr), want)
		}
	}
	keys, _ := r.monitor(cache, ldap.ScopeSingleLevel, "(objectclass=*)", 0)
	if len(keys) != 1 {
		t.Fatalf("keys under the cache: %v", keys)
	}
	for dn, k := range keys {
		for attr, want := range map[string]string{"owner": "sim://hosta-node:389", "entries": "1",
			"expiresinms": "50000", "negative": "FALSE"} {
			if k.First(attr) != want {
				t.Errorf("key %s = %q, want %q", attr, k.First(attr), want)
			}
		}
		// The key's own DN names it: a base search there finds it.
		if one, res := r.monitor(dn, ldap.ScopeBaseObject, "(objectclass=*)", 0); len(one) != 1 || res.Code != ldap.ResultSuccess {
			t.Errorf("base search at %s: %v %v", dn, res, one)
		}
	}
}

// TestMonitorSearchRegion: scope, filter, size limit and attribute
// selection apply to the monitor as to any search, and the root DSE names
// the monitor.
func TestMonitorSearchRegion(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	for _, name := range []string{"hostA", "hostB", "hostC"} {
		r.register(name, time.Hour)
	}
	dns := func(m map[string]*ldap.Entry) []string {
		var out []string
		for dn := range m {
			out = append(out, dn)
		}
		slices.Sort(out)
		return out
	}
	all := []string{registrationDN("hostA"), registrationDN("hostB"), registrationDN("hostC")}
	for _, c := range []struct {
		base   string
		scope  ldap.Scope
		filter string
		limit  int64
		want   []string
		code   ldap.ResultCode
	}{
		{"", ldap.ScopeBaseObject, "(objectclass=*)", 0, []string{"cn=monitor, vo=alliance"}, ldap.ResultSuccess},
		{"", ldap.ScopeSingleLevel, "(objectclass=*)", 0, all, ldap.ResultSuccess},
		{"", ldap.ScopeWholeSubtree, "(objectclass=mdsregistration)", 0, all, ldap.ResultSuccess},
		{"", ldap.ScopeWholeSubtree, "(url=sim://hostB-node:389)", 0, all[1:2], ldap.ResultSuccess},
		{"", ldap.ScopeWholeSubtree, "(mdstype=gris)", 2, all[:2], ldap.ResultSizeLimitExceeded},
		{"", ldap.ScopeWholeSubtree, "(mdstype=gris)", 3, all, ldap.ResultSuccess},
		{registrationDN("hostC"), ldap.ScopeBaseObject, "(objectclass=*)", 0, all[2:], ldap.ResultSuccess},
		{registrationDN("hostC"), ldap.ScopeSingleLevel, "(objectclass=*)", 0, nil, ldap.ResultSuccess},
		{"key=nobody, cn=monitor, vo=alliance", ldap.ScopeWholeSubtree, "(objectclass=*)", 0, nil, ldap.ResultSuccess},
	} {
		got, res := r.monitor(c.base, c.scope, c.filter, c.limit)
		if res.Code != c.code || !slices.Equal(dns(got), c.want) {
			t.Errorf("base=%q scope=%d %s limit %d: %v %v, want %v %v",
				c.base, c.scope, c.filter, c.limit, res.Code, dns(got), c.code, c.want)
		}
	}
	got, _ := r.monitor(registrationDN("hostA"), ldap.ScopeBaseObject, "(objectclass=*)", 0, "refreshes")
	if e := got[registrationDN("hostA")]; e == nil || len(e.Attributes()) != 1 || e.First("refreshes") != "1" {
		t.Errorf("selected attributes: %v", got)
	}
	dse, _ := r.search(&ldap.SearchRequest{Scope: ldap.ScopeBaseObject})
	if len(dse) != 1 || dse[0].First("monitorcontext") != "cn=monitor, vo=alliance" {
		t.Errorf("root DSE: %v", dse)
	}
}
