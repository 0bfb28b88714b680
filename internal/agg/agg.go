// Package agg implements the distributive aggregation functions Reptile
// complains about — COUNT, SUM, MEAN, STD — together with the merge function
// G of Appendix A that reassembles a parent aggregate from its partition, and
// a group-by engine over datasets.
//
// Internally a group's statistics are carried as the distributive triple
// (count, sum, sum of squares), from which every supported aggregate and the
// merge function are derived exactly.
//
// A group-by's Result is a coded relation. It owns its group list, code table
// and the one string table the groups' values are windows of; the dictionaries
// the codes index stay the dataset's (or cube's). Every producer assembles it
// through FromCodes, the only place group order is decided. A Result is
// read-only once built (the engine memoises and shares them), except for the
// key index, which Get builds under a sync.Once. Dictionary ranks, the sort
// key, live with the owner of an immutable dictionary: a cube ranks each once.
package agg

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/data"
)

// Func identifies a distributive aggregation function.
type Func string

// Supported aggregation functions.
const (
	Count Func = "count"
	Sum   Func = "sum"
	Mean  Func = "mean"
	Std   Func = "std"
)

// ParseFunc converts a string into a Func, validating it.
func ParseFunc(s string) (Func, error) {
	switch Func(s) {
	case Count, Sum, Mean, Std:
		return Func(s), nil
	}
	return "", fmt.Errorf("agg: unknown aggregation function %q", s)
}

// Stats is the distributive statistic triple for one group of records.
// Merging partitions is component-wise addition, which makes every derived
// aggregate (COUNT, SUM, MEAN, STD) distributive in the sense of §3.1.
type Stats struct {
	Count float64
	Sum   float64
	SumSq float64
}

// FromValues summarizes a slice of measure values.
func FromValues(vals []float64) Stats {
	var s Stats
	for _, v := range vals {
		s.Count++
		s.Sum += v
		s.SumSq += v * v
	}
	return s
}

// Add returns the merge of two partitions' statistics.
func (s Stats) Add(o Stats) Stats {
	return Stats{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, SumSq: s.SumSq + o.SumSq}
}

// Merge implements G: it reassembles the parent statistics from a partition.
func Merge(parts ...Stats) Stats {
	var out Stats
	for _, p := range parts {
		out = out.Add(p)
	}
	return out
}

// Mean returns the group mean (0 for an empty group).
func (s Stats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Variance returns the sample variance (n-1 denominator, 0 when count < 2).
func (s Stats) Variance() float64 {
	if s.Count < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.SumSq - s.Count*m*m) / (s.Count - 1)
	if v < 0 { // guard against floating point cancellation
		return 0
	}
	return v
}

// Std returns the sample standard deviation.
func (s Stats) Std() float64 { return math.Sqrt(s.Variance()) }

// Get evaluates one aggregation function on the group.
func (s Stats) Get(f Func) float64 {
	switch f {
	case Count:
		return s.Count
	case Sum:
		return s.Sum
	case Mean:
		return s.Mean()
	case Std:
		return s.Std()
	}
	panic(fmt.Sprintf("agg: unknown function %q", f))
}

// WithAggregate returns a copy of s in which aggregate f has been replaced by
// value v, keeping the other distributive components consistent. This is the
// repair primitive: repairing MEAN keeps COUNT and the dispersion around the
// mean; repairing COUNT keeps MEAN and STD; repairing SUM scales the mean at
// fixed count; repairing STD keeps COUNT and MEAN.
func (s Stats) WithAggregate(f Func, v float64) Stats {
	switch f {
	case Count:
		return FromMoments(v, s.Mean(), s.Std())
	case Mean:
		return FromMoments(s.Count, v, s.Std())
	case Std:
		return FromMoments(s.Count, s.Mean(), v)
	case Sum:
		if s.Count == 0 {
			// An empty group has no records whose mean could be scaled:
			// carry the repaired sum directly, keeping Count and SumSq at
			// zero, instead of fabricating a phantom single record (which
			// would leak a spurious +1 into every parent COUNT merge).
			return Stats{Sum: v}
		}
		return FromMoments(s.Count, v/s.Count, s.Std())
	}
	panic(fmt.Sprintf("agg: unknown function %q", f))
}

// FromMoments builds the distributive triple from (count, mean, std). It is
// the inverse of the Appendix A decomposition.
func FromMoments(count, mean, std float64) Stats {
	if count < 0 {
		count = 0
	}
	s := Stats{Count: count, Sum: count * mean}
	variance := std * std
	if count >= 2 {
		s.SumSq = (count-1)*variance + count*mean*mean
	} else {
		s.SumSq = count * mean * mean
	}
	return s
}

// MergeMoments implements the Appendix A formulas for G over (count, mean,
// std) triples directly. It exists to cross-check Merge; both agree exactly
// on the derived aggregates.
func MergeMoments(parts ...Stats) (count, mean, std float64) {
	var n float64
	for _, p := range parts {
		n += p.Count
	}
	count = n
	if n == 0 {
		return 0, 0, 0
	}
	var ws float64
	for _, p := range parts {
		ws += p.Count * p.Mean()
	}
	mean = ws / n
	if n < 2 {
		return count, mean, 0
	}
	var acc float64
	for _, p := range parts {
		if p.Count >= 1 {
			acc += (p.Count - 1) * p.Variance()
			d := mean - p.Mean()
			acc += p.Count * d * d
		}
	}
	v := acc / (n - 1)
	if v < 0 {
		v = 0
	}
	return count, mean, math.Sqrt(v)
}

// Group is one output tuple of a group-by: its key values (in attribute
// order) and statistics. Vals is a window of its result's one decoded string
// table.
type Group struct {
	Vals  []string // one value per group-by attribute
	Stats Stats
}

// Key returns the group's encoded key (data.EncodeKey of Vals).
func (g Group) Key() string { return data.EncodeKey(g.Vals) }

// Value returns the group's value for attribute a given the result's
// attribute list.
func (g Group) Value(attrs []string, a string) (string, bool) {
	for i, x := range attrs {
		if x == a {
			return g.Vals[i], true
		}
	}
	return "", false
}

// Result is the output of a group-by aggregation: the ordered group list
// and, beside it, the same tuples as dictionary codes. Group gi's value for
// attribute ai is Dicts[ai][Codes[gi*len(Attrs)+ai]]; the dictionaries are
// the source columns' own (entries no group uses included), so codes are
// comparable only within one result.
type Result struct {
	Attrs   []string
	Measure string
	Groups  []Group
	Codes   []uint32   // group-major, stride len(Attrs)
	Dicts   [][]string // per attribute

	indexOnce sync.Once
	index     map[string]int // Group.Key() → position; built by the first Get
}

// FromCodes assembles a Result from an unordered coded relation: group gi
// carries stats[gi] and codes[gi*len(attrs):][:len(attrs)] into dicts. Groups
// are ordered lexicographically by value strings, attribute by attribute, by
// a stable LSD counting sort over dictionary ranks (see Ranks; nil ranks are
// computed over the codes in use) — the same order, as distinct dictionary
// strings have distinct ranks. Strings are decoded once, into one shared table.
func FromCodes(attrs []string, measure string, dicts [][]string, ranks [][]uint32, codes []uint32, stats []Stats) *Result {
	k, n := len(attrs), len(stats)
	perm, next := make([]int, n), make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for ai := k - 1; ai >= 0 && n > 1; ai-- {
		var rank []uint32
		if ranks != nil {
			rank = ranks[ai]
		} else {
			rank = rankCodes(dicts[ai], codes, k, ai)
		}
		counts := make([]int, len(rank)+1)
		for gi := 0; gi < n; gi++ {
			counts[rank[codes[gi*k+ai]]+1]++
		}
		for r := 1; r < len(counts); r++ {
			counts[r] += counts[r-1]
		}
		for _, gi := range perm {
			r := rank[codes[gi*k+ai]]
			next[counts[r]] = gi
			counts[r]++
		}
		perm, next = next, perm
	}
	r := &Result{Attrs: attrs, Measure: measure, Groups: make([]Group, n), Dicts: dicts}
	var vals []string
	if k > 0 { // the empty tuple keeps nil Vals, as data.DecodeKey has it
		r.Codes, vals = make([]uint32, n*k), make([]string, n*k)
	}
	for i, gi := range perm {
		lo, hi := i*k, (i+1)*k
		copy(r.Codes[lo:hi], codes[gi*k:])
		for ai, c := range r.Codes[lo:hi] {
			vals[lo+ai] = dicts[ai][c]
		}
		r.Groups[i] = Group{Vals: vals[lo:hi:hi], Stats: stats[gi]}
	}
	return r
}

// Ranks returns, per code of dict, the position of its string in the sorted
// dictionary; the owner of an immutable dictionary computes them once.
func Ranks(dict []string) []uint32 {
	all := make([]uint32, len(dict))
	for c := range all {
		all[c] = uint32(c)
	}
	return rankCodes(dict, all, 1, 0)
}

// rankCodes ranks, among themselves, the codes attribute ai takes in a
// group-major code table of stride k; other codes' ranks are meaningless.
func rankCodes(dict []string, codes []uint32, k, ai int) []uint32 {
	rank := make([]uint32, len(dict))
	var used []uint32
	for i := ai; i < len(codes); i += k {
		if c := codes[i]; rank[c] == 0 {
			rank[c] = 1
			used = append(used, c)
		}
	}
	slices.SortFunc(used, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
	for r, c := range used {
		rank[c] = uint32(r)
	}
	return rank
}

// NewResult assembles a Result from unordered string groups (callers that
// hold no codes — today, tests): it interns every attribute's values into a
// dictionary of its own and funnels into FromCodes.
func NewResult(attrs []string, measure string, groups []Group) *Result {
	k := len(attrs)
	dicts, interned := make([][]string, k), make([]map[string]uint32, k)
	for ai := range interned {
		interned[ai] = make(map[string]uint32)
	}
	codes := make([]uint32, 0, len(groups)*k)
	stats := make([]Stats, len(groups))
	for gi, g := range groups {
		stats[gi] = g.Stats
		for ai, v := range g.Vals {
			c, ok := interned[ai][v]
			if !ok {
				c = uint32(len(dicts[ai]))
				interned[ai][v] = c
				dicts[ai] = append(dicts[ai], v)
			}
			codes = append(codes, c)
		}
	}
	return FromCodes(attrs, measure, dicts, nil, codes, stats)
}

// Get returns the group with the given key values; the first call builds the
// key index, once however many goroutines share the result.
func (r *Result) Get(vals []string) (Group, bool) {
	r.indexOnce.Do(func() {
		r.index = make(map[string]int, len(r.Groups))
		for i, g := range r.Groups {
			r.index[g.Key()] = i
		}
	})
	i, ok := r.index[data.EncodeKey(vals)]
	if !ok {
		return Group{}, false
	}
	return r.Groups[i], true
}

// Equal reports whether r and o hold the same relation (attributes, measure,
// groups by value and statistics, in order), whatever their codes index.
func (r *Result) Equal(o *Result) bool {
	return slices.Equal(r.Attrs, o.Attrs) && r.Measure == o.Measure &&
		slices.EqualFunc(r.Groups, o.Groups, func(a, b Group) bool {
			return a.Stats == b.Stats && slices.Equal(a.Vals, b.Vals)
		})
}

// Total merges every group back into one statistic (G over the partition).
func (r *Result) Total() Stats {
	var out Stats
	for _, g := range r.Groups {
		out = out.Add(g.Stats)
	}
	return out
}

// Materialized is the interface of a precomputed-aggregate provider attached
// to a dataset via data.Dataset.SetRollup (internal/cube's Cube implements
// it). GroupBy reports ok=false when it cannot answer the grouping — the
// caller then falls back to a row scan. A provider must return results
// equal to the scan it replaces, freshly allocated per call: bit-identical
// when built directly from the rows (internal/cube's build path), and at
// worst reassociating the floating-point sums of incrementally merged
// partitions (its append path) — counts are always exact.
type Materialized interface {
	GroupBy(attrs []string, measure string) (*Result, bool)
}

// MaterializedOf returns the dataset's attached materialized-aggregate
// provider, if any.
func MaterializedOf(d *data.Dataset) (Materialized, bool) {
	m, ok := d.Rollup().(Materialized)
	return m, ok
}

// GroupBy aggregates measure over the given attributes. Groups are sorted by
// their key values lexicographically, attribute by attribute. When the
// dataset carries a materialized aggregate attachment that covers the
// grouping (a hierarchy-prefix cube), the answer comes from precomputed
// cells in O(groups); otherwise one scan over the dictionary codes buckets
// the rows. Both produce identical results.
func GroupBy(d *data.Dataset, attrs []string, measure string) *Result {
	if m, ok := MaterializedOf(d); ok {
		if r, ok := m.GroupBy(attrs, measure); ok {
			return r
		}
	}
	return scan(d, attrs, measure)
}

// scan is the row-scan group-by: rows are bucketed, a block at a time, by the
// tuple of their per-attribute dictionary codes (data.TupleIndex), statistics
// accumulate in row order, and a group's string values are decoded once per
// group rather than once per row.
func scan(d *data.Dataset, attrs []string, measure string) *Result {
	col := d.Measure(measure)
	tuples := d.NewTupleIndex(attrs, len(col))
	var stats []Stats
	var ids [1024]int32
	for lo := 0; lo < len(col); lo += len(ids) {
		hi := min(lo+len(ids), len(col))
		tuples.AddRows(lo, hi, ids[:])
		if grown := tuples.Len() - len(stats); grown > 0 {
			stats = append(stats, make([]Stats, grown)...)
		}
		for j, v := range col[lo:hi] {
			s := &stats[ids[j]]
			s.Count++
			s.Sum += v
			s.SumSq += v * v
		}
	}
	dicts, codes := tuples.Codes()
	return FromCodes(attrs, measure, dicts, nil, codes, stats)
}
