package ldap

import (
	"errors"
	"fmt"
	"net"
	"net/url"
	"slices"
	"strings"
)

// URL is an LDAP URL (RFC 4516 subset): scheme, host:port, base DN and,
// optionally, the scope part. The paper uses such URLs both as globally
// unique names (§4.1: provider name + name within provider) and as GRRP
// service references and GIIS referrals; a referral carries a scope when
// the search it continues has a different one there (RFC 4511 §4.5.3).
type URL struct {
	Scheme string // "ldap" (or "sim" for the simulated transport)
	Host   string
	Port   string
	DN     DN
	// scope is the scope part plus one; zero when the URL has none.
	scope uint8
}

// ErrBadURL reports a malformed LDAP URL.
var ErrBadURL = errors.New("ldap: malformed URL")

// scopeNames are the RFC 4516 scope keywords, indexed by Scope.
var scopeNames = [...]string{ScopeBaseObject: "base", ScopeSingleLevel: "one", ScopeWholeSubtree: "sub"}

// ParseURL parses "ldap://host:port/dn??scope": the DN and the scope part
// are optional. Unescaped commas and spaces are tolerated in the DN, and
// percent escapes are decoded there (String writes '%' and '?' that way).
// The attributes, filter and extensions parts must be empty.
func ParseURL(s string) (URL, error) {
	var u URL
	i := strings.Index(s, "://")
	if i <= 0 {
		return u, fmt.Errorf("%w: %q", ErrBadURL, s)
	}
	u.Scheme = s[:i]
	rest := s[i+3:]
	hostport := rest
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		hostport = rest[:j]
		dnStr, query, _ := strings.Cut(rest[j+1:], "?")
		if err := u.parseQuery(query); err != nil {
			return u, fmt.Errorf("%w: %v in %q", ErrBadURL, err, s)
		}
		if dnStr != "" {
			unescaped, err := url.PathUnescape(dnStr)
			if err != nil {
				return u, fmt.Errorf("%w: %v", ErrBadURL, err)
			}
			dn, err := ParseDN(unescaped)
			if err != nil {
				return u, fmt.Errorf("%w: %v", ErrBadURL, err)
			}
			u.DN = dn
		}
	}
	if hostport == "" {
		return u, fmt.Errorf("%w: missing host in %q", ErrBadURL, s)
	}
	if host, port, err := net.SplitHostPort(hostport); err == nil {
		u.Host, u.Port = host, port
	} else {
		u.Host = hostport
	}
	if u.Host == "" {
		return u, fmt.Errorf("%w: missing host in %q", ErrBadURL, s)
	}
	return u, nil
}

// parseQuery reads what follows the DN's '?': attributes ? scope ? filter
// ? extensions, of which only the scope may be given.
func (u *URL) parseQuery(query string) error {
	parts := strings.SplitN(query, "?", 4)
	for k, part := range parts {
		switch {
		case part == "":
		case k != 1:
			return errors.New("unsupported URL part")
		default:
			i := slices.IndexFunc(scopeNames[:], func(name string) bool { return strings.EqualFold(name, part) })
			if i < 0 {
				return fmt.Errorf("unknown scope %q", part)
			}
			u.scope = uint8(i) + 1
		}
	}
	return nil
}

// MustParseURL parses s and panics on error.
func MustParseURL(s string) URL {
	u, err := ParseURL(s)
	if err != nil {
		panic(err)
	}
	return u
}

// urlDNEscaper percent-escapes what would end the DN part of a URL early or
// be read back as an escape.
var urlDNEscaper = strings.NewReplacer("%", "%25", "?", "%3F")

// String renders the URL.
func (u URL) String() string {
	var b strings.Builder
	b.WriteString(u.Scheme)
	b.WriteString("://")
	b.WriteString(u.Address())
	if !u.DN.IsZero() || u.scope != 0 {
		b.WriteByte('/')
		urlDNEscaper.WriteString(&b, u.DN.String())
	}
	if u.scope != 0 {
		b.WriteString("??")
		b.WriteString(scopeNames[u.scope-1])
	}
	return b.String()
}

// Address returns host:port (or just host when no port is set).
func (u URL) Address() string {
	if u.Port == "" {
		return u.Host
	}
	return net.JoinHostPort(u.Host, u.Port)
}

// WithDN returns a copy of the URL naming dn at the same service.
func (u URL) WithDN(dn DN) URL {
	u.DN = dn
	return u
}

// WithScope returns a copy of the URL carrying scope as its scope part.
func (u URL) WithScope(scope Scope) URL {
	u.scope = uint8(scope) + 1
	return u
}

// Scope returns the URL's scope part, or def when it has none: a client
// following a referral searches with the referral's scope if it names one,
// and with the original search's otherwise.
func (u URL) Scope(def Scope) Scope {
	if u.scope == 0 {
		return def
	}
	return Scope(u.scope - 1)
}

// ServiceKey returns the comparison key identifying the service endpoint
// (scheme + address, ignoring the DN).
func (u URL) ServiceKey() string {
	return u.Scheme + "://" + strings.ToLower(u.Address())
}
