package core

import (
	"strings"
	"testing"
)

// FuzzParseComplaint feeds arbitrary specs to the complaint parser. The
// contract: any string either parses into a Complaint or returns an error —
// never a panic — a successful parse names no key twice, passes the check a
// Recommend makes (so the parser and the engine cannot drift apart), and it
// must render back through Key() without panicking (Key is what the
// recommendation cache hashes, so it runs on every accepted complaint).
func FuzzParseComplaint(f *testing.F) {
	f.Add("agg=mean measure=severity dir=low district=Ofla year=1986")
	f.Add(`agg=sum measure=votes dir=high district="New York" year=2020`)
	f.Add(`agg=sum measure=votes "district=New York"`)
	f.Add("dir=should target=3.5 measure=m")
	f.Add(`a="unterminated`)
	f.Add("==")
	f.Add("")
	f.Add("target=NaN dir=should measure=m agg=count")
	f.Add("agg=mean agg=sum measure=m district=a district=b")

	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseComplaint(spec)
		if err != nil {
			return
		}
		fields, _ := splitQuotedFields(spec)
		keys := map[string]bool{}
		for _, kv := range fields {
			k, _, _ := strings.Cut(kv, "=")
			if keys[k] {
				t.Fatalf("spec %q names key %q twice and parsed", spec, k)
			}
			keys[k] = true
		}
		if err := c.check(); err != nil {
			t.Fatalf("spec %q parsed into a complaint Recommend refuses: %v", spec, err)
		}
		_, _ = c.Key()
	})
}
