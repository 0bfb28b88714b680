// Package core implements Reptile's primary contribution: the
// complaint-based drill-down problem (§3.1). Given a view over hierarchical
// data and a complaint about one of its tuples, the engine evaluates every
// candidate drill-down hierarchy, trains a multi-level model on the parallel
// groups to estimate each drill-down group's expected statistics, and ranks
// the groups by how much repairing their statistics to the expectation
// resolves the complaint.
package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/data"
)

// Direction expresses how the complained value deviates from expectation.
type Direction int

const (
	// TooHigh means the aggregate should be lower.
	TooHigh Direction = iota
	// TooLow means the aggregate should be higher.
	TooLow
	// ShouldBe means the aggregate should equal Complaint.Target.
	ShouldBe
)

func (d Direction) String() string {
	switch d {
	case TooHigh:
		return "too high"
	case TooLow:
		return "too low"
	case ShouldBe:
		return "should be"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Complaint is the user's statement about one tuple of the current view:
// the aggregate fcomp aims to repair, the tuple's identifying dimension
// values, and the deviation direction (§3.1). It defines the function
// fcomp: tuple → ℝ that Reptile minimizes.
type Complaint struct {
	// Agg is the complained aggregation function.
	Agg agg.Func
	// Measure is the measure attribute the aggregate is computed over.
	Measure string
	// Tuple identifies the complained tuple: a value for every current
	// group-by attribute.
	Tuple data.Predicate
	// Direction states how the value deviates.
	Direction Direction
	// Target is the expected value when Direction == ShouldBe.
	Target float64
	// Custom, when non-nil, overrides the built-in directions with a
	// user-provided fcomp (§3.1 allows any function of the aggregate that
	// the user aims to minimize).
	Custom func(v float64) float64
}

// Key returns a stable cache key identifying the complaint: two complaints
// with equal keys produce identical recommendations against the same engine
// and drill state. Complaints carrying a Custom fcomp have no stable
// identity, so ok is false and they must not be cached.
func (c Complaint) Key() (key string, ok bool) {
	if c.Custom != nil {
		return "", false
	}
	// Attribute names and values are quoted so separator bytes inside them
	// (NUL, '=') cannot make two distinct complaints collide on one key.
	var b strings.Builder
	fmt.Fprintf(&b, "agg=%s\x00measure=%q\x00dir=%d", c.Agg, c.Measure, int(c.Direction))
	if c.Direction == ShouldBe {
		fmt.Fprintf(&b, "\x00target=%s", strconv.FormatFloat(c.Target, 'g', -1, 64))
	}
	for _, a := range slices.Sorted(maps.Keys(c.Tuple)) {
		fmt.Fprintf(&b, "\x00%q=%q", a, c.Tuple[a])
	}
	return b.String(), true
}

// Eval implements fcomp: the value the user wants minimized. For TooHigh it
// is the aggregate itself; for TooLow its negation; for ShouldBe the
// absolute distance to the target; a Custom function overrides all three.
func (c Complaint) Eval(v float64) float64 {
	if c.Custom != nil {
		return c.Custom(v)
	}
	switch c.Direction {
	case TooHigh:
		return v
	case TooLow:
		return -v
	case ShouldBe:
		return math.Abs(v - c.Target)
	}
	panic(fmt.Sprintf("core: unknown direction %d", int(c.Direction)))
}

// baseStats returns the distributive statistics that must be modeled to
// repair the complained aggregate: SUM decomposes into MEAN and COUNT
// (footnote 3), STD requires the group's MEAN and STD (a shifted group mean
// changes the parent's dispersion through the merge formula).
func (c Complaint) baseStats() []agg.Func {
	switch c.Agg {
	case agg.Count:
		return []agg.Func{agg.Count}
	case agg.Mean:
		return []agg.Func{agg.Mean}
	case agg.Sum:
		return []agg.Func{agg.Mean, agg.Count}
	case agg.Std:
		return []agg.Func{agg.Mean, agg.Std}
	}
	panic(fmt.Sprintf("core: unknown aggregate %q", c.Agg))
}

// repairStats applies the model predictions to one group's statistics
// (frepair): the complained aggregate's distributive components are replaced
// by their expected values, keeping the remaining components.
func (c Complaint) repairStats(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
	switch c.Agg {
	case agg.Count:
		v := math.Max(0, math.Round(pred[agg.Count]))
		return s.WithAggregate(agg.Count, v)
	case agg.Mean:
		return s.WithAggregate(agg.Mean, pred[agg.Mean])
	case agg.Sum:
		cnt := math.Max(0, math.Round(pred[agg.Count]))
		return agg.FromMoments(cnt, pred[agg.Mean], s.Std())
	case agg.Std:
		std := math.Max(0, pred[agg.Std])
		return agg.FromMoments(s.Count, pred[agg.Mean], std)
	}
	panic(fmt.Sprintf("core: unknown aggregate %q", c.Agg))
}
