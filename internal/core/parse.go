package core

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/agg"
	"repro/internal/data"
)

// ParseComplaint parses the compact complaint notation shared by the CLI and
// the server: space-separated key=value fields, e.g.
//
//	agg=mean measure=severity dir=low district=Ofla year=1986
//
// Values containing spaces are double-quoted (district="New York"); quotes
// may wrap the value or the whole field and are stripped. Recognized keys are
// agg, measure, dir (high, low, or should), and target (required when
// dir=should); every other key becomes a tuple condition. A key may appear
// once: a repeated one is an error, not a silent overwrite. The recognized
// keys are reserved: a dimension attribute literally named "agg", "measure",
// "dir" or "target" cannot be expressed as a tuple condition in this
// notation (construct the Complaint directly instead).
func ParseComplaint(spec string) (Complaint, error) {
	c := Complaint{Tuple: data.Predicate{}}
	fields, err := splitQuotedFields(spec)
	if err != nil {
		return c, err
	}
	seen := make(map[string]bool, len(fields))
	for _, kv := range fields {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("core: bad complaint field %q", kv)
		}
		// A repeated key would silently overwrite the earlier one.
		if seen[k] {
			return c, fmt.Errorf("core: complaint key %q given twice", k)
		}
		seen[k] = true
		switch k {
		case "agg":
			f, err := agg.ParseFunc(v)
			if err != nil {
				return c, err
			}
			c.Agg = f
		case "measure":
			c.Measure = v
		case "dir":
			switch v {
			case "high":
				c.Direction = TooHigh
			case "low":
				c.Direction = TooLow
			case "should":
				c.Direction = ShouldBe
			default:
				return c, fmt.Errorf("core: bad direction %q: want high, low or should", v)
			}
		case "target":
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return c, fmt.Errorf("core: bad target %q: %w", v, err)
			}
			c.Target = t // ParseFloat accepts "NaN" and "±Inf", which check refuses
		default:
			c.Tuple[k] = v
		}
	}
	if c.Direction == ShouldBe && !seen["target"] {
		return c, fmt.Errorf("core: dir=should needs target=")
	}
	// target= must not silently swallow what a user meant as a tuple
	// condition on a dimension named "target": outside dir=should it is a
	// hard error, never a dropped filter.
	if seen["target"] && c.Direction != ShouldBe {
		return c, fmt.Errorf("core: target= is only valid with dir=should")
	}
	return c, c.check()
}

// splitQuotedFields splits on whitespace, treating double-quoted regions as
// atomic; the quotes themselves are stripped.
func splitQuotedFields(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inField, inQuote := false, false
	flush := func() {
		if inField {
			out = append(out, cur.String())
			cur.Reset()
			inField = false
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
			inField = true // an empty quoted value ("") is still a field
		case unicode.IsSpace(r) && !inQuote:
			flush()
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inQuote {
		return nil, fmt.Errorf("core: unterminated quote in %q", s)
	}
	flush()
	return out, nil
}
