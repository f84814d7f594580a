package giis

import (
	"strconv"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/qcache"
)

// The monitor is what the directory believes about its VO, served over GRIP
// as ordinary entries the way OpenLDAP's back-monitor serves server state.
// They are built when a search asks for them, under cn=monitor beneath the
// suffix (the root DSE names it as monitorcontext):
//
//	cn=monitor, <suffix>                   the registry: live and expired-total counts
//	key=<key>, cn=monitor, <suffix>        one live registration
//	cn=<cache>, cn=monitor, <suffix>       one query cache: config and counters
//	key=<key>, cn=<cache>, cn=monitor, …   one key resident in that cache
//
// Only a search based at or below cn=monitor sees the subtree; one based at
// or above the suffix never does, so data answers and the keys a parent
// caches them under do not change. A parent reaches a child's monitor by
// chaining: cn=monitor under the child's view suffix translates to the
// child's own.

// searchMonitor answers a search based at or below s.monitor.
func (s *Server) searchMonitor(base ldap.DN, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	filter := op.Plan()
	sent := int64(0)
	for _, e := range s.monitorEntries() {
		if !e.DN.WithinScope(base, op.Scope) || !filter.Matches(e) {
			continue
		}
		if op.SizeLimit > 0 && sent >= op.SizeLimit {
			return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
		}
		if err := ldap.SendProjected(w, e, op.Attributes); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
		sent++
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// monitorEntries renders the monitor subtree as it stands, parents before
// their children.
func (s *Server) monitorEntries() []*ldap.Entry {
	now, reg := s.clock.Now(), s.receiver.Registry
	live := reg.Live()
	out := []*ldap.Entry{ldap.NewEntry(s.monitor).
		Add("objectclass", "monitorserver").
		Add("cn", "monitor").
		Add("live", strconv.Itoa(len(live))).
		Add("expiredtotal", strconv.FormatUint(reg.ExpiredTotal(), 10))}
	for _, it := range live {
		e := ldap.NewEntry(s.monitor.ChildAVA("key", it.Key)).
			Add("objectclass", "mdsregistration").
			Add("key", it.Key)
		if m, ok := it.Payload.(*grrp.Message); ok {
			e.Add("url", m.ServiceURL).Add("suffix", m.SuffixDN).Add("mdstype", m.MDSType).Add("vo", m.VO)
		}
		e.Add("expiresinms", millis(it.ExpiresAt.Sub(now))).
			Add("lastrefresh", stamp(it.LastRefresh)).
			Add("joinedat", stamp(it.JoinedAt)).
			Add("refreshes", strconv.Itoa(it.Refreshes))
		if it.Recovered {
			e.Add("recovered", "TRUE")
		}
		out = append(out, e)
	}
	for _, c := range []*qcache.Cache{s.strategy.index, s.qc} {
		if c == nil {
			continue
		}
		cfg, st := c.Config(), c.Stats()
		dn := s.monitor.ChildAVA("cn", cfg.Name)
		out = append(out, ldap.NewEntry(dn).
			Add("objectclass", "mdsquerycache").
			Add("cn", cfg.Name).
			Add("ttlms", millis(cfg.TTL)).
			Add("max", strconv.Itoa(cfg.Max)).
			Add("keys", strconv.Itoa(st.Keys)).
			Add("hits", strconv.FormatInt(st.Hits, 10)).
			Add("misses", strconv.FormatInt(st.Misses, 10)).
			Add("coalesced", strconv.FormatInt(st.Coalesced, 10)).
			Add("evicted", strconv.FormatInt(st.Evicted, 10)).
			Add("invalidated", strconv.FormatInt(st.Invalidated, 10)).
			Add("staleskips", strconv.FormatInt(st.StaleSkips, 10)).
			Add("staleserved", strconv.FormatInt(st.StaleServed, 10)))
		for _, k := range c.Residents() {
			out = append(out, ldap.NewEntry(dn.ChildAVA("key", k.Key)).
				Add("objectclass", "mdscachekey").
				Add("key", k.Key).
				Add("owner", k.Owner).
				Add("entries", strconv.Itoa(k.Entries)).
				Add("expiresinms", millis(k.Expires.Sub(now))).
				Add("negative", boolean(k.Entries == 0)).
				Add("referenced", boolean(k.Referenced)))
		}
	}
	return out
}

func millis(d time.Duration) string { return strconv.FormatInt(d.Milliseconds(), 10) }

func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// boolean renders an LDAP Boolean.
func boolean(b bool) string {
	if b {
		return "TRUE"
	}
	return "FALSE"
}
