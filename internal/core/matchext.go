package core

import (
	"bufio"
	"fmt"
	"strings"

	"mds2/internal/giis"
	"mds2/internal/ldap"
	"mds2/internal/ldap/ldif"
	"mds2/internal/matchmake"
)

// OIDMatchmake identifies the matchmaking extended operation, the §5.3 /
// §6 demonstration that directories "can employ the Condor matchmaking
// algorithm as a query evaluation mechanism" behind the standard protocol's
// extension point.
const OIDMatchmake = "1.3.6.1.4.1.3536.2.1"

// MatchmakeExtension mounts a classad evaluator over the subtree index of a
// directory built with the cache preset. The request value is a small text form:
//
//	requirements: other.cpucount >= 32 && other.load5 < 1.0
//	rank: other.freecpus
//	attr.imagesize: 512
//
// attr.* lines populate the request ad so resource-side requirements can
// reference them. The response is the LDIF of matching entries, best rank
// first.
func MatchmakeExtension(index *giis.Strategy) giis.Extension {
	return func(_ *ldap.Request, value []byte) ([]byte, error) {
		req, err := parseMatchRequest(string(value))
		if err != nil {
			return nil, err
		}
		// Fold sibling entries into per-resource ads: group by the top two
		// DN components so a host's load/storage children enrich its ad.
		corpus := index.Entries()
		byResource := map[string]*matchmake.Ad{}
		entryFor := map[string]*ldap.Entry{}
		for _, e := range corpus {
			key := resourceKey(e.DN)
			ad, ok := byResource[key]
			if !ok {
				ad = matchmake.NewAd()
				byResource[key] = ad
			}
			for name, v := range matchmake.FromEntry(e).Attrs {
				if name == "dn" {
					continue
				}
				ad.Set(name, v)
			}
			if e.IsA("computer") || entryFor[key] == nil {
				entryFor[key] = e
				ad.Set("dn", e.DN.String())
			}
		}
		var candidates []*matchmake.Ad
		for _, ad := range byResource {
			candidates = append(candidates, ad)
		}
		results, err := matchmake.MatchAll(req, candidates)
		if err != nil {
			return nil, err
		}
		var entries []*ldap.Entry
		for _, r := range results {
			dn, _ := r.Ad.Get("dn").(string)
			if e := entryFor[resourceKeyString(dn)]; e != nil {
				entries = append(entries, e)
			}
		}
		return []byte(ldif.Marshal(entries)), nil
	}
}

func resourceKey(dn ldap.DN) string {
	// A resource is identified by its host component: drop leaf RDNs until
	// an hn= component leads, else use the full DN.
	for i := 0; i < len(dn); i++ {
		if strings.EqualFold(dn[i][0].Attr, "hn") {
			return ldap.DN(dn[i:]).Normalize()
		}
	}
	return dn.Normalize()
}

func resourceKeyString(s string) string {
	dn, err := ldap.ParseDN(s)
	if err != nil {
		return s
	}
	return resourceKey(dn)
}

func parseMatchRequest(text string) (*matchmake.Ad, error) {
	ad := matchmake.NewAd()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.Index(line, ":")
		if idx <= 0 {
			return nil, fmt.Errorf("core: bad matchmake request line %q", line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:idx]))
		val := strings.TrimSpace(line[idx+1:])
		switch {
		case key == "requirements":
			ad.Requirements = val
		case key == "rank":
			ad.Rank = val
		case strings.HasPrefix(key, "attr."):
			ad.Set(strings.TrimPrefix(key, "attr."), parseAdValue(val))
		default:
			return nil, fmt.Errorf("core: unknown matchmake request key %q", key)
		}
	}
	return ad, nil
}

func parseAdValue(s string) matchmake.Value {
	switch strings.ToLower(s) {
	case "true":
		return true
	case "false":
		return false
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err == nil && fmt.Sprintf("%g", f) == s {
		return f
	}
	return s
}
