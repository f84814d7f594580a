// Package ldif implements a pragmatic subset of the LDIF text format
// (RFC 2849) for entry interchange: it is how script-style GRIS providers
// (§10.3: "implemented via a set of scripts") hand results to the server,
// and how command-line tools print search results.
//
// Supported: dn: lines, attr: value lines, line continuations (leading
// space), '#' comments, and blank-line entry separation. Base64 values
// (attr:: b64) are supported for values carrying newlines or leading
// spaces.
package ldif

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"strings"

	"mds2/internal/ldap"
)

// Marshal renders entries as LDIF text with deterministic attribute order.
func Marshal(entries []*ldap.Entry) string {
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeLine(&b, "dn", e.DN.String())
		cp := e.Clone()
		cp.SortAttrs()
		for _, a := range cp.Attributes() {
			for _, v := range a.Values {
				writeLine(&b, a.Name, v)
			}
		}
	}
	return b.String()
}

func writeLine(b *strings.Builder, attr, value string) {
	if needsBase64(value) {
		b.WriteString(attr)
		b.WriteString(":: ")
		b.WriteString(base64.StdEncoding.EncodeToString([]byte(value)))
	} else {
		b.WriteString(attr)
		b.WriteString(": ")
		b.WriteString(value)
	}
	b.WriteByte('\n')
}

func needsBase64(v string) bool {
	if v == "" {
		return false
	}
	if v[0] == ' ' || v[0] == ':' || v[0] == '<' {
		return true
	}
	for i := 0; i < len(v); i++ {
		if v[i] == '\n' || v[i] == '\r' || v[i] >= 0x80 {
			return true
		}
	}
	return strings.HasSuffix(v, " ")
}

// Parse reads LDIF text into entries.
func Parse(r io.Reader) ([]*ldap.Entry, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 8<<20)

	// First unfold continuations and drop comments.
	var lines []string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, " ") && len(lines) > 0 && lines[len(lines)-1] != "":
			lines[len(lines)-1] += line[1:]
		default:
			lines = append(lines, line)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}

	var entries []*ldap.Entry
	var cur *ldap.Entry
	flush := func() {
		if cur != nil {
			entries = append(entries, cur)
			cur = nil
		}
	}
	for lineNo, line := range lines {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		attr, value, err := splitLine(line)
		if err != nil {
			return nil, fmt.Errorf("ldif: line %d: %w", lineNo+1, err)
		}
		if strings.EqualFold(attr, "dn") {
			flush()
			dn, err := ldap.ParseDN(value)
			if err != nil {
				return nil, fmt.Errorf("ldif: line %d: %w", lineNo+1, err)
			}
			cur = ldap.NewEntry(dn)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("ldif: line %d: attribute before dn", lineNo+1)
		}
		cur.Add(attr, value)
	}
	flush()
	return entries, nil
}

// ParseString is Parse over a string.
func ParseString(s string) ([]*ldap.Entry, error) { return Parse(strings.NewReader(s)) }

func splitLine(line string) (attr, value string, err error) {
	idx := strings.Index(line, ":")
	if idx <= 0 {
		return "", "", fmt.Errorf("missing ':' in %q", line)
	}
	attr = strings.TrimSpace(line[:idx])
	rest := line[idx+1:]
	if strings.HasPrefix(rest, ":") {
		// Base64 form.
		enc := strings.TrimSpace(rest[1:])
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return "", "", fmt.Errorf("bad base64 value: %v", err)
		}
		return attr, string(raw), nil
	}
	return attr, strings.TrimPrefix(rest, " "), nil
}
