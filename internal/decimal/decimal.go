// Package decimal is the one grammar by which a text is a number, in the
// SQL engine (a comparison, an assignment) and in a macro's %IF alike.
package decimal

import (
	"strconv"
	"strings"
)

// Parse returns the value of s, spaces around it aside, when it is a
// finite decimal number: an optional sign, digits with an optional
// fraction, an optional exponent. Anything else is text: NaN and Inf,
// which would compare equal to or unordered with every number, a
// hexadecimal float, and a number too large for a float64.
func Parse(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	digits := func(i int) int {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	end := digits(i)
	n := end - i
	if end < len(s) && s[end] == '.' {
		i, end = end+1, digits(end+1)
		n += end - i
	}
	if n == 0 {
		return 0, false
	}
	if end < len(s) && (s[end] == 'e' || s[end] == 'E') {
		i = end + 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if end = digits(i); end == i {
			return 0, false
		}
	}
	if end != len(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}
