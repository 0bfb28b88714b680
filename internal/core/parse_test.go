package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/agg"
)

func TestParseComplaint(t *testing.T) {
	c, err := ParseComplaint("agg=mean measure=severity dir=low district=Ofla year=1986")
	if err != nil {
		t.Fatal(err)
	}
	if c.Agg != agg.Mean || c.Measure != "severity" || c.Direction != TooLow {
		t.Errorf("parsed = %+v", c)
	}
	if c.Tuple["district"] != "Ofla" || c.Tuple["year"] != "1986" {
		t.Errorf("tuple = %v", c.Tuple)
	}
	for _, bad := range []string{
		"agg=mean",                                  // missing measure
		"agg=bogus measure=m dir=low",               // bad aggregate
		"agg=mean measure=m dir=side",               // bad direction
		"notakv",                                    // malformed field
		"agg=mean measure=m dir=should",             // should without target
		"agg=mean measure=m dir=should target=x",    // unparsable target
		"agg=mean measure=m dir=should target=NaN",  // non-finite target
		"agg=mean measure=m dir=should target=-Inf", // non-finite target
		"agg=mean measure=m dir=high target=5",      // target outside dir=should
		`agg=mean measure=m district="Ofla`,         // unterminated quote
	} {
		if _, err := ParseComplaint(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
	// A repeated key is refused, naming the key, instead of overwriting the
	// earlier value: tuple conditions and recognized keys alike.
	for bad, key := range map[string]string{
		"agg=mean measure=m district=a district=b":        "district",
		"agg=mean agg=sum measure=m":                      "agg",
		"agg=mean measure=m measure=m":                    "measure",
		`agg=mean measure=m dir=low "dir=high"`:           "dir",
		"agg=mean measure=m dir=should target=1 target=2": "target",
	} {
		if _, err := ParseComplaint(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(key)) {
			t.Errorf("spec %q: error %v, want one naming %q", bad, err, key)
		}
	}
}

func TestParseComplaintQuotedValues(t *testing.T) {
	c, err := ParseComplaint(`agg=sum measure=votes dir=high district="New York" year=2020`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuple["district"] != "New York" {
		t.Errorf("district = %q, want %q", c.Tuple["district"], "New York")
	}
	// Quoting the whole field works too.
	c, err = ParseComplaint(`agg=sum measure=votes "district=New York"`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuple["district"] != "New York" {
		t.Errorf("whole-field quote: district = %q", c.Tuple["district"])
	}
	// Empty quoted value is a present-but-empty condition.
	c, err = ParseComplaint(`agg=sum measure=votes district=""`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Tuple["district"]; !ok || v != "" {
		t.Errorf("empty quote: tuple = %v", c.Tuple)
	}
}

func TestParseComplaintShouldBe(t *testing.T) {
	c, err := ParseComplaint("agg=count measure=votes dir=should target=120 state=NY")
	if err != nil {
		t.Fatal(err)
	}
	if c.Direction != ShouldBe || c.Target != 120 {
		t.Errorf("parsed = %+v", c)
	}
	if c.Eval(100) != 20 {
		t.Errorf("Eval(100) = %v, want 20", c.Eval(100))
	}
}

func TestComplaintKeyStable(t *testing.T) {
	a, err := ParseComplaint("agg=mean measure=severity dir=low district=Ofla year=1986")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseComplaint("agg=mean measure=severity dir=low year=1986 district=Ofla")
	if err != nil {
		t.Fatal(err)
	}
	ka, ok := a.Key()
	if !ok {
		t.Fatal("Key not ok for plain complaint")
	}
	kb, _ := b.Key()
	if ka != kb {
		t.Errorf("tuple order changed key: %q vs %q", ka, kb)
	}
	c := a
	c.Direction = TooHigh
	if kc, _ := c.Key(); kc == ka {
		t.Error("direction change did not change key")
	}
	c = a
	c.Custom = func(v float64) float64 { return v }
	if _, ok := c.Key(); ok {
		t.Error("custom fcomp must not be cacheable")
	}
	// Separator bytes inside values must not collide keys: a single value
	// "1\x00b=2" is not the same complaint as the pair a=1, b=2.
	crafted := a
	crafted.Tuple = map[string]string{"a": "1\x00b=2"}
	pair := a
	pair.Tuple = map[string]string{"a": "1", "b": "2"}
	kc, _ := crafted.Key()
	kp, _ := pair.Key()
	if kc == kp {
		t.Error("embedded separator bytes collided two distinct complaints")
	}
	// ShouldBe embeds the target.
	s1, _ := ParseComplaint("agg=mean measure=m dir=should target=1")
	s2, _ := ParseComplaint("agg=mean measure=m dir=should target=2")
	k1, _ := s1.Key()
	k2, _ := s2.Key()
	if k1 == k2 {
		t.Error("target change did not change key")
	}
}
