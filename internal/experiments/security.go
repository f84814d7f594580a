package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/nws"
)

func init() {
	register("security", "E7 (§7): the four provider/directory trust postures — who sees which attributes", runSecurity)
	register("nws", "E8 (§4.1): non-enumerable NWS namespace — on-demand measurement and forecaster selection", runNWS)
}

// runSecurity renders the §7 posture matrix: for each of the four policy
// configurations, which attributes of a host entry each class of principal
// can see.
func runSecurity(w io.Writer) error {
	entry := ldap.NewEntry(ldap.MustParseDN("hn=hostX, o=grid")).
		Add("objectclass", "computer").
		Add("hn", "hostX").
		Add("system", "linux redhat 6.2").
		Add("load5", "0.7")

	anonymous := (*gsi.Principal)(nil)
	user := &gsi.Principal{Subject: "cn=user"}
	scheduler := &gsi.Principal{Subject: "cn=scheduler"}
	directory := &gsi.Principal{Subject: "cn=giis.vo", TrustedDirectory: true}

	policies := []struct {
		name string
		pol  *gsi.Policy
	}{
		{"trusted-directory", gsi.NewPolicy(gsi.PostureTrustedDirectory).
			Grant("anonymous", "objectclass", "system")},
		{"restricted", gsi.NewPolicy(gsi.PostureRestricted).
			Grant("*", "objectclass", "system"). // any authenticated principal
			Grant("cn=scheduler", "load5", "system")},
		{"existence-only", gsi.NewPolicy(gsi.PostureExistenceOnly)},
		{"open", gsi.NewPolicy(gsi.PostureOpen)},
	}

	view := func(pol *gsi.Policy, p *gsi.Principal) string {
		e := pol.Redact(p, entry)
		if e == nil {
			return "(hidden)"
		}
		attrs := e.Attributes()
		if len(attrs) == len(entry.Attributes()) {
			return "all attributes"
		}
		names := make([]string, 0, len(attrs))
		for _, a := range attrs {
			names = append(names, a.Name)
		}
		return fmt.Sprintf("%v", names)
	}

	tab := NewTable("E7 — §7 policy postures: visible view of hn=hostX",
		"posture", "anonymous", "authenticated user", "cn=scheduler", "trusted directory")
	for _, pc := range policies {
		tab.AddRow(pc.name,
			view(pc.pol, anonymous), view(pc.pol, user),
			view(pc.pol, scheduler), view(pc.pol, directory))
	}
	fmt.Fprintln(w, tab)

	// The two-step query plan §7 describes: the directory knows OS type;
	// load requires re-authentication at the provider.
	restricted := policies[1].pol
	filter := ldap.MustParseFilter("(&(system=linux*)(load5<=1.0))")
	fmt.Fprintf(w, "restricted posture, filter %s:\n", filter)
	fmt.Fprintf(w, "  anonymous filter authorized: %v (must split the query)\n",
		restricted.FilterAuthorized(anonymous, filter, entry))
	fmt.Fprintf(w, "  scheduler filter authorized: %v (may query load directly)\n",
		restricted.FilterAuthorized(scheduler, filter, entry))
	return nil
}

// runNWS demonstrates the §4.1 worked example: bandwidth entries for
// arbitrary endpoint pairs are generated only when queried, and the
// forecaster battery converges on the best predictor for each link.
func runNWS(w io.Writer) error {
	svc := nws.NewService()
	t0 := time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)

	pairs := [][2]string{
		{"lbl.gov", "anl.gov"},
		{"isi.edu", "anl.gov"},
		{"never.measured", "until.now"},
	}
	tab := NewTable("E8 — NWS on-demand links and forecaster selection (200 measurements each)",
		"link", "last bandwidth (Mbps)", "prediction (Mbps)", "chosen forecaster", "experiments run")
	for _, p := range pairs {
		var last float64
		for i := 0; i < 200; i++ {
			m := svc.Measure(p[0], p[1], t0.Add(time.Duration(i)*time.Minute))
			last = m.BandwidthMbps
		}
		pred, name, ok := svc.Forecast(p[0], p[1])
		if !ok {
			return fmt.Errorf("nws: no forecast for %v", p)
		}
		tab.AddRow(p[0]+"→"+p[1], last, pred, name, svc.Measured())
	}
	fmt.Fprintln(w, tab)

	// Per-forecaster accuracy on one link.
	if b, ok := svc.Battery("lbl.gov", "anl.gov"); ok {
		mse := b.MSE()
		acc := NewTable("forecaster battery MSE (lbl.gov→anl.gov)", "forecaster", "MSE")
		for _, name := range sortedKeys(mse) {
			acc.AddRow(name, mse[name])
		}
		fmt.Fprintln(w, acc)
	}
	fmt.Fprintln(w, "namespace is parametric: no link exists until a query names its endpoints (§4.1)")
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
