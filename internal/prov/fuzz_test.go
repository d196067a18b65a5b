package prov

import "testing"

// FuzzParseItemName: arbitrary item names never panic the parser, and a
// name that parses is exactly the canonical encoding of the subject it
// parses to — so no stored item can alias another subject's name. The
// seed corpus lives in testdata/fuzz/FuzzParseItemName.
func FuzzParseItemName(f *testing.F) {
	f.Fuzz(func(t *testing.T, item string) {
		ref, err := ParseItemName(item)
		if err != nil {
			return
		}
		if got := EncodeItemName(ref); got != item {
			t.Fatalf("ParseItemName(%q) = %v, which encodes as %q", item, ref, got)
		}
	})
}
