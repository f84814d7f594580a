package ldap

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Case-insensitive string primitives for the filter hot path. Every helper
// here is allocation-free: instead of lowering whole strings with
// strings.ToLower per evaluation (the pre-index behaviour), comparisons fold
// rune pairs on the fly. Filter evaluation runs once per candidate entry per
// query, so these run millions of times per second on a loaded directory.

// foldRune maps a rune to its canonical comparison form. ToUpper∘ToLower
// round-trips the handful of case-mapping oddities (Kelvin sign, long s)
// onto their plain lowercase partners, which keeps index keys consistent
// with EqualFold matching for all practical directory data.
func foldRune(r rune) rune { return unicode.ToLower(unicode.ToUpper(r)) }

// FoldKey returns the case-folded form of s used as an attribute-index key,
// and by everything outside this package that must agree with equality
// matching (Bloom summary terms, shard partition keys): two strings that
// strings.EqualFold — what Filter equality evaluates — have one FoldKey.
// ASCII strings that are already lowercase are returned unchanged (no
// allocation), which is the overwhelmingly common case for attribute names
// and objectclass values.
func FoldKey(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf || (c >= 'A' && c <= 'Z') {
			return foldKeySlow(s)
		}
	}
	return s
}

func foldKeySlow(s string) string {
	isASCII := true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			isASCII = false
			break
		}
	}
	if isASCII {
		b := []byte(s)
		for i, c := range b {
			b[i] = lowerASCII(c)
		}
		return string(b)
	}
	return strings.Map(foldRune, s)
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b)
// without building either string — the relation DN.Normalize induces on DN
// components. It is deliberately not foldRune: ToLower keeps 'ſ', 'ı', 'µ'
// and 'ς' distinct from 's', 'i', 'μ' and 'σ', and the DN comparisons must
// agree with the Normalize keys the Store is indexed by. Like ToLower, an
// invalid UTF-8 byte compares as U+FFFD.
func lowerEqual(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		ca, cb := a[0], b[0]
		if ca < utf8.RuneSelf && cb < utf8.RuneSelf {
			if ca != cb && lowerASCII(ca) != lowerASCII(cb) {
				return false
			}
			a, b = a[1:], b[1:]
			continue
		}
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return len(a) == 0 && len(b) == 0
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// foldConsume reports how many leading bytes of s case-insensitively match
// needle in full, or -1 when they do not.
func foldConsume(s, needle string) int {
	i := 0
	for _, nr := range needle {
		if i >= len(s) {
			return -1
		}
		sr, size := utf8.DecodeRuneInString(s[i:])
		if foldRune(sr) != foldRune(nr) {
			return -1
		}
		i += size
	}
	return i
}

// foldSkipPast finds the first case-insensitive occurrence of needle in s
// and returns the byte offset just past it, or -1 when absent. An empty
// needle matches at offset 0.
func foldSkipPast(s, needle string) int {
	if needle == "" {
		return 0
	}
	for i := 0; i < len(s); {
		if n := foldConsume(s[i:], needle); n >= 0 {
			return i + n
		}
		_, size := utf8.DecodeRuneInString(s[i:])
		i += size
	}
	return -1
}

// foldHasSuffix reports whether s ends with needle under case folding.
func foldHasSuffix(s, needle string) bool {
	i := len(s)
	for {
		if foldConsume(s[i:], needle) == len(s)-i {
			return true
		}
		if i == 0 {
			return false
		}
		_, size := utf8.DecodeLastRuneInString(s[:i])
		i -= size
	}
}

// foldCompare orders a and b as strings.Compare would order their lowered
// forms (UTF-8 byte order equals code-point order, so rune-wise comparison
// of folded runes is equivalent) without materializing either.
func foldCompare(a, b string) int {
	for len(a) > 0 && len(b) > 0 {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		fa, fb := foldRune(ra), foldRune(rb)
		if fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		a, b = a[na:], b[nb:]
	}
	switch {
	case len(a) > 0:
		return 1
	case len(b) > 0:
		return -1
	}
	return 0
}

// squashFoldEqual reports whether a and b are equal after dropping all
// Unicode whitespace and folding case — the approximate-match relation,
// equivalent to squash(a) == squash(b) without building either string.
func squashFoldEqual(a, b string) bool {
	i, j := 0, 0
	for {
		for i < len(a) {
			r, size := utf8.DecodeRuneInString(a[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
		for j < len(b) {
			r, size := utf8.DecodeRuneInString(b[j:])
			if !unicode.IsSpace(r) {
				break
			}
			j += size
		}
		if i >= len(a) || j >= len(b) {
			return i >= len(a) && j >= len(b)
		}
		ra, na := utf8.DecodeRuneInString(a[i:])
		rb, nb := utf8.DecodeRuneInString(b[j:])
		if foldRune(ra) != foldRune(rb) {
			return false
		}
		i += na
		j += nb
	}
}

// looksNumeric is a cheap pre-filter before strconv.ParseFloat: ordering
// comparisons fall back to string order for non-numeric values, and calling
// ParseFloat on obvious non-numbers would allocate an error per entry.
func looksNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return false
	}
	c := s[0]
	return c == '+' || c == '-' || c == '.' || (c >= '0' && c <= '9')
}
