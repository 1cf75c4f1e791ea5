// Package suppress exercises the //lint:ignore directive handling:
// a well-formed directive for the right analyzer on the offending line
// or the line above suppresses; wrong-analyzer and malformed
// directives do not, and one with nothing to suppress is reported.
package suppress

var sink bool

func directives(a, b float64) {
	//lint:ignore pcflint/floatcmp golden test: directive on the line above suppresses
	sink = a == b
	sink = a != b //lint:ignore pcflint/floatcmp golden test: same-line directive suppresses
	//lint:ignore pcflint/nopanic a directive for a different analyzer does not suppress
	sink = a == b // want "floating-point == comparison"
	//lint:ignore pcflint/floatcmp
	sink = a != b // want "floating-point != comparison"
	//lint:ignore pcflint/floatcmp golden test: nothing below compares floats for equality
	sink = a < b
}
