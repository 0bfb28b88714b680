// Package agg implements the distributive aggregation functions Reptile
// complains about — COUNT, SUM, MEAN, STD — together with the merge function
// G of Appendix A that reassembles a parent aggregate from its partition, and
// a group-by engine over datasets.
//
// Internally a group's statistics are carried as the distributive triple
// (count, sum, sum of squares), from which every supported aggregate and the
// merge function are derived exactly.
//
// A group-by's Result is a coded relation: a code table and pointer-free
// statistics in group order, beside the dictionaries the codes index, which
// stay the dataset's (or cube's). Every producer assembles it through
// FromCodes, whose Order alone decides group order and which decodes no
// string. GroupByCodes is the group-by the engine reads; GroupBy, NewResult
// and Decode are the string edges, which build the decoded view (Groups) as a
// new Result. A Result is read-only once built (the engine memoises and shares
// them), except for the key index, which Get builds under a sync.Once. Ranks,
// the sort key, live with the owner of an immutable dictionary: a cube ranks
// dictionaries and paths once.
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

// Group is one decoded output tuple of a group-by: its key values (in
// attribute order) and statistics.
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

// Result is the output of a group-by aggregation, a coded relation: group gi
// carries Stats[gi], and its value for attribute ai is
// Dicts[ai][Codes[gi*len(Attrs)+ai]]. The dictionaries are the source
// columns' own (entries no group uses included), so codes are comparable only
// within one result. Groups is the decoded view of the same tuples, which
// only Decode fills in.
type Result struct {
	Attrs   []string
	Measure string
	Codes   []uint32   // group-major, stride len(Attrs)
	Dicts   [][]string // per attribute
	Stats   []Stats    // per group
	Groups  []Group    // decoded view: nil unless built by Decode

	indexOnce sync.Once
	index     map[string]int // group key → position; built by the first Get
}

// FromCodes assembles a Result from an unordered coded relation of distinct
// tuples: group gi carries stats[gi] and codes[gi*len(attrs):][:len(attrs)]
// into dicts. Both slices become the result's, reordered in place by Order —
// lexicographic by value strings, attribute by attribute, as distinct strings
// have distinct ranks (nil ranks are computed over the codes in use). No
// string is decoded.
func FromCodes(attrs []string, measure string, dicts [][]string, ranks [][]uint32, codes []uint32, stats []Stats) *Result {
	k, n := len(attrs), len(stats)
	if ranks == nil && n > 1 {
		ranks = make([][]uint32, k)
		for ai := range ranks {
			ranks[ai] = rankCodes(dicts[ai], codes, k, ai)
		}
	}
	permute(Order(n, codes, ranks), k, codes, stats)
	return &Result{Attrs: attrs, Measure: measure, Codes: codes, Dicts: dicts, Stats: stats}
}

// Len returns the number of groups.
func (r *Result) Len() int { return len(r.Stats) }

// Group decodes group gi: its values, freshly allocated (nil for the empty
// tuple, as data.DecodeKey has it), and statistics.
func (r *Result) Group(gi int) Group {
	k := len(r.Attrs)
	g := Group{Vals: slices.Grow([]string(nil), k), Stats: r.Stats[gi]}
	for ai, c := range r.Codes[gi*k : (gi+1)*k] {
		g.Vals = append(g.Vals, r.Dicts[ai][c])
	}
	return g
}

// Decode returns a new Result holding r's relation and its decoded view,
// Groups, whose values are windows of one string table. r is not written, so
// a shared result may be decoded by any reader.
func (r *Result) Decode() *Result {
	k, vals := len(r.Attrs), make([]string, len(r.Codes))
	for i, c := range r.Codes {
		vals[i] = r.Dicts[i%k][c]
	}
	groups := make([]Group, r.Len())
	for gi := range groups {
		if groups[gi].Stats = r.Stats[gi]; k > 0 {
			groups[gi].Vals = vals[gi*k : (gi+1)*k : (gi+1)*k]
		}
	}
	return &Result{Attrs: r.Attrs, Measure: r.Measure, Codes: r.Codes, Dicts: r.Dicts, Stats: r.Stats, Groups: groups}
}

// Order returns the permutation that puts n distinct tuples (group-major
// codes, stride len(ranks)) in group order: by rank, attribute by attribute.
// ranks[ai][c] ranks attribute ai's code c below len(ranks[ai]); nil marks an
// attribute a later one's rank orders too (an ancestor before its path rank,
// internal/cube). The ranks pack into a mixed-radix key of as many 64-bit
// words as they need: one word whose space is within data.TableSpacePerTuple
// times the tuples is placed through a slot table, any other key radix-sorted
// a word at a time, least significant first (data.SortKeys).
func Order(n int, codes []uint32, ranks [][]uint32) []int32 {
	k := len(ranks)
	radix := func(ai int) uint64 { return uint64(max(len(ranks[ai]), 1)) } // 1 for nil
	type word struct {
		lo, hi int // attributes [lo, hi)
		space  uint64
	}
	var words []word // least significant first
	for hi := k; hi > 0; {
		w := word{hi, hi, 1}
		for ; w.lo > 0 && w.space <= math.MaxUint64/radix(w.lo-1); w.lo-- {
			w.space *= radix(w.lo - 1)
		}
		words, hi = append(words, w), w.lo
	}
	key := func(w word, gi int32) uint64 {
		row, key := codes[int(gi)*k:], uint64(0)
		for ai := w.lo; ai < w.hi; ai++ {
			if r := ranks[ai]; r != nil {
				key = key*uint64(len(r)) + uint64(r[row[ai]])
			}
		}
		return key
	}
	if len(words) == 1 && words[0].space >= uint64(n) && words[0].space <= data.TableSpacePerTuple*uint64(n) {
		// Each tuple's id+1 goes to the slot its key addresses; the table then
		// compacts into the ids. Two tuples sharing a key — which distinct ones
		// do only under the path ranks of an inconsistent cube — sort instead.
		table, gi := make([]int32, words[0].space), 0
		for ; gi < n; gi++ {
			slot := &table[key(words[0], int32(gi))]
			if *slot != 0 {
				break
			}
			*slot = int32(gi) + 1
		}
		if gi == n {
			ids := table[:0]
			for _, s := range table {
				if s != 0 {
					ids = append(ids, s-1)
				}
			}
			return ids
		}
	}
	ids, keys := make([]int32, n), make([]uint64, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	for _, w := range words {
		for i, gi := range ids {
			keys[i] = key(w, gi)
		}
		data.SortKeys(keys, ids, w.space-1)
	}
	return ids
}

// permute reorders codes' rows of k and stats in place so that position i
// holds what position order[i] held, walking each cycle of the permutation
// once; order is consumed.
func permute(order []int32, k int, codes []uint32, stats []Stats) {
	row := make([]uint32, k)
	for i := range order {
		if order[i] < 0 {
			continue
		}
		copy(row, codes[i*k:])
		s, j := stats[i], i
		for src := int(order[i]); src != i; j, src = src, int(order[src]) {
			copy(codes[j*k:(j+1)*k], codes[src*k:])
			stats[j], order[j] = stats[src], -1
		}
		copy(codes[j*k:], row)
		stats[j], order[j] = s, -1
	}
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

// NewResult assembles a decoded Result from unordered string groups (callers
// that hold no codes: tests and factor.NewSource), interning each attribute's
// values through a data.Interner of its own, into FromCodes. Like the
// generators' row API, it panics on a value no dictionary admits.
func NewResult(attrs []string, measure string, groups []Group) *Result {
	k := len(attrs)
	interners := make([]data.Interner, k)
	codes := make([]uint32, 0, len(groups)*k)
	stats := make([]Stats, len(groups))
	for gi, g := range groups {
		stats[gi] = g.Stats
		for ai, v := range g.Vals {
			c, err := interners[ai].Intern(v)
			if err != nil {
				panic(fmt.Sprintf("agg: NewResult attribute %q: %v", attrs[ai], err))
			}
			codes = append(codes, c)
		}
	}
	dicts := make([][]string, k)
	for ai := range interners {
		dicts[ai] = interners[ai].Dict()
	}
	return FromCodes(attrs, measure, dicts, nil, codes, stats).Decode()
}

// Get returns the (decoded) group with the given key values; the first call
// builds the key index from the codes, once however many goroutines share the
// result.
func (r *Result) Get(vals []string) (Group, bool) {
	r.indexOnce.Do(func() {
		r.index = make(map[string]int, r.Len())
		for gi := range r.Stats {
			r.index[r.Group(gi).Key()] = gi
		}
	})
	gi, ok := r.index[data.EncodeKey(vals)]
	if !ok {
		return Group{}, false
	}
	return r.Group(gi), true
}

// Equal reports whether r and o hold the same relation (attributes, measure,
// groups by value and statistics, in order), whatever their codes index and
// whether or not either is decoded.
func (r *Result) Equal(o *Result) bool {
	if !slices.Equal(r.Attrs, o.Attrs) || r.Measure != o.Measure || !slices.Equal(r.Stats, o.Stats) {
		return false
	}
	for i, c := range r.Codes {
		ai := i % len(r.Attrs)
		if r.Dicts[ai][c] != o.Dicts[ai][o.Codes[i]] {
			return false
		}
	}
	return true
}

// Materialized is the interface of a precomputed-aggregate provider attached
// to a dataset via data.Dataset.SetRollup (internal/cube's Cube implements
// it). GroupBy reports ok=false when it cannot answer the grouping — the
// caller then falls back to a row scan. A provider must return the coded
// relation the scan it replaces would (FromCodes's, undecoded), freshly
// allocated per call: bit-identical when built directly from the rows
// (internal/cube's build path), and at worst reassociating the floating-point
// sums of incrementally merged partitions (its append path) — counts are
// always exact.
type Materialized interface {
	GroupBy(attrs []string, measure string) (*Result, bool)
}

// MaterializedOf returns the dataset's attached materialized-aggregate
// provider, if any.
func MaterializedOf(d *data.Dataset) (Materialized, bool) {
	m, ok := d.Rollup().(Materialized)
	return m, ok
}

// GroupByCodes aggregates measure over the given attributes into a coded
// relation, whose groups are sorted by their key values lexicographically,
// attribute by attribute. When the dataset carries a materialized aggregate
// attachment that covers the grouping (a hierarchy-prefix cube), the answer
// comes from precomputed cells in O(groups); otherwise one scan over the
// dictionary codes buckets the rows. Both produce identical results.
func GroupByCodes(d *data.Dataset, attrs []string, measure string) *Result {
	if m, ok := MaterializedOf(d); ok {
		if r, ok := m.GroupBy(attrs, measure); ok {
			return r
		}
	}
	return scan(d, attrs, measure)
}

// GroupBy is GroupByCodes decoded: the string edge for callers that read
// Groups.
func GroupBy(d *data.Dataset, attrs []string, measure string) *Result {
	return GroupByCodes(d, attrs, measure).Decode()
}

// scan is the row-scan group-by: rows are bucketed, a block at a time, by the
// tuple of their per-attribute dictionary codes (data.TupleIndex), and
// statistics accumulate in row order. Over a validated dataset the bucket key
// holds only the codes the hierarchies' FDs leave undetermined — a drilled
// hierarchy's deepest attribute stands for its ancestors — so the key space,
// and with it the table-or-map choice, is that of the attributes the groups
// actually vary on; the groups and their statistics are the same.
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
