package fingerprint

// RefEquivEncode is the equivalence canonicalizer with the value
// numbering EquivEncode dropped (equiv_ref_test.go), for the tests that
// hold the two to the same classes; RefEquivEncodeWith switches its
// normalizations.
var (
	RefEquivEncode     = refEquivEncode
	RefEquivEncodeWith = refEquivEncodeWith
)
