//go:build !race && !mdsdebug

package ldap

// allocsExact: allocation counts are the program's own. The race detector
// and the mdsdebug seal checks both allocate on paths a budget measures.
const allocsExact = true
