package cube

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/agg"
	"repro/internal/data"
)

// ErrNotCubable reports a dataset the cube subsystem declines to materialize:
// no hierarchies, a hierarchy attribute that is not a dimension, a composite
// key space that overflows uint64, or a lattice with more levels than maxLevels.
// Callers treat it as "serve from row scans instead", not as a failure.
var ErrNotCubable = errors.New("dataset not cubable")

// maxLevels bounds the lattice size (the product of depth+1 over
// hierarchies) so pathological schemas cannot explode the build.
const maxLevels = 4096

// attrInfo is one flattened hierarchy attribute in canonical order
// (hierarchy by hierarchy, least to most specific).
type attrInfo struct {
	name  string
	hier  int // index into hiers
	level int // depth within the hierarchy
	dict  []string
	radix uint64 // dictionary size (1 for an empty dictionary)
}

// level is one lattice grouping: the cells of the group-by over every
// hierarchy's prefix of the level's depth. Cells are keyed by the
// mixed-radix composite of their attribute codes in canonical attribute
// order and stored sorted by key.
type level struct {
	depths []int // depth per hierarchy
	attrs  []int // flattened attribute indices, canonical order
	keys   []uint64
	counts []float64
	sums   [][]float64 // per measure, aligned with keys
	sumsqs [][]float64
}

// Cube is the materialized rollup lattice of one immutable dataset version.
// It is safe for concurrent use; query methods allocate fresh results.
type Cube struct {
	name     string
	rows     int
	measures []string
	hiers    []data.Hierarchy
	attrs    []attrInfo
	attrIdx  map[string]int // attribute name → flattened index
	// firstAttr[h] is the flattened index of hierarchy h's first attribute.
	firstAttr []int
	// prefixRadix[h][d] is the product of the first d attribute radices of
	// hierarchy h: the size of the composite key space of its depth-d prefix.
	prefixRadix [][]uint64
	levels      []*level // in lattice order (latticeIndex over depth vectors)

	// ranks[ai] is agg.Ranks of attribute ai's dictionary; pathRanks[ai] ranks
	// the paths that end in attribute ai, indexed by their last code — nil when
	// a value ends two paths (the rows break an FD). Both are agg.Order's sort
	// keys (see project), computed by the first query.
	ranksOnce sync.Once
	ranks     [][]uint32
	pathRanks [][]uint32
}

// skeleton builds an empty cube over the dataset's schema: flattened
// attributes, radices, and one empty level per lattice point.
func skeleton(ds *data.Dataset) (*Cube, error) {
	if len(ds.Hierarchies) == 0 {
		return nil, fmt.Errorf("cube: %w: dataset %q has no hierarchies", ErrNotCubable, ds.Name)
	}
	c := &Cube{
		name:     ds.Name,
		rows:     ds.NumRows(),
		measures: ds.MeasureNames(),
		hiers:    append([]data.Hierarchy(nil), ds.Hierarchies...),
		attrIdx:  make(map[string]int),
	}
	product := uint64(1)
	nlevels := 1
	for hi, h := range c.hiers {
		if len(h.Attrs) == 0 || nlevels > maxLevels/(len(h.Attrs)+1) {
			return nil, fmt.Errorf("cube: %w: lattice exceeds %d groupings", ErrNotCubable, maxLevels)
		}
		nlevels *= len(h.Attrs) + 1
		c.firstAttr = append(c.firstAttr, len(c.attrs))
		pr := []uint64{1}
		for lvl, a := range h.Attrs {
			if _, dup := c.attrIdx[a]; dup {
				return nil, fmt.Errorf("cube: %w: attribute %q appears in two hierarchies", ErrNotCubable, a)
			}
			if !ds.HasDim(a) {
				return nil, fmt.Errorf("cube: %w: attribute %q is not a dimension", ErrNotCubable, a)
			}
			dict, _ := ds.DimCodes(a)
			radix := uint64(len(dict))
			if radix == 0 {
				radix = 1 // empty dataset: no rows, no cells, any radix works
			}
			if product > math.MaxUint64/radix || pr[lvl] > math.MaxUint64/radix {
				return nil, fmt.Errorf("cube: %w: composite key space overflows uint64", ErrNotCubable)
			}
			product *= radix
			pr = append(pr, pr[lvl]*radix)
			c.attrIdx[a] = len(c.attrs)
			c.attrs = append(c.attrs, attrInfo{name: a, hier: hi, level: lvl, dict: dict, radix: radix})
		}
		c.prefixRadix = append(c.prefixRadix, pr)
	}
	c.levels = make([]*level, nlevels)
	for li := range c.levels {
		lv := &level{depths: c.depthsOf(li)}
		for hi := range c.hiers {
			for d := 0; d < lv.depths[hi]; d++ {
				lv.attrs = append(lv.attrs, c.firstAttr[hi]+d)
			}
		}
		lv.sums = make([][]float64, len(c.measures))
		lv.sumsqs = make([][]float64, len(c.measures))
		c.levels[li] = lv
	}
	return c, nil
}

// latticeIndex maps a depth vector to its position in levels.
func (c *Cube) latticeIndex(depths []int) int {
	idx := 0
	for hi, h := range c.hiers {
		idx = idx*(len(h.Attrs)+1) + depths[hi]
	}
	return idx
}

// depthsOf inverts latticeIndex.
func (c *Cube) depthsOf(li int) []int {
	out := make([]int, len(c.hiers))
	for hi := len(c.hiers) - 1; hi >= 0; hi-- {
		n := len(c.hiers[hi].Attrs) + 1
		out[hi] = li % n
		li /= n
	}
	return out
}

// Build materializes the full lattice over a dataset. Every cell accumulates
// in row order, so it carries exactly the statistics a row scan of its
// grouping produces.
func Build(ds *data.Dataset) (*Cube, error) {
	return BuildRows(ds, 0, ds.NumRows())
}

// BuildRows materializes the lattice over the row range [lo, hi) — the delta
// cube of an appended batch when lo is the predecessor's row count.
//
// Rows are bucketed twice, both times by data.TupleIndex. First per hierarchy
// and depth: the rows' paths over the hierarchy's prefix are numbered, giving a
// path-id column and, per path, its composite key. Then level by level: a cell
// is a tuple of path ids, one per drilled hierarchy, so its key space is the
// product of the path counts the rows exhibit — what the hierarchies' FDs
// bound — not of the dictionary sizes. A new cell's stored key is assembled
// from its paths' keys.
func BuildRows(ds *data.Dataset, lo, hi int) (*Cube, error) {
	if lo < 0 || hi < lo || hi > ds.NumRows() {
		return nil, fmt.Errorf("cube: row range [%d,%d) out of bounds (%d rows)", lo, hi, ds.NumRows())
	}
	c, err := skeleton(ds)
	if err != nil {
		return nil, err
	}
	n := hi - lo
	c.rows = n
	cols := make([][]float64, len(c.measures))
	for mi, m := range c.measures {
		cols[mi] = ds.Measure(m)[lo:hi]
	}
	var block [1024]int32
	// pathIDs[h][d-1] is each row's path over hierarchy h's first d attributes,
	// pathKeys[h][d-1] each such path's composite key.
	pathIDs := make([][][]uint32, len(c.hiers))
	pathKeys := make([][][]uint64, len(c.hiers))
	for h, hier := range c.hiers {
		for d := 1; d <= len(hier.Attrs); d++ {
			paths := ds.NewTupleIndex(hier.Attrs[:d], n)
			ids := make([]uint32, n)
			for r := 0; r < n; r += len(block) {
				m := min(len(block), n-r)
				paths.AddRows(lo+r, lo+r+m, block[:])
				for j, id := range block[:m] {
					ids[r+j] = uint32(id)
				}
			}
			_, codes := paths.Codes()
			keys := make([]uint64, paths.Len())
			for p := range keys {
				for j, code := range codes[p*d : (p+1)*d] {
					keys[p] = keys[p]*c.attrs[c.firstAttr[h]+j].radix + uint64(code)
				}
			}
			pathIDs[h], pathKeys[h] = append(pathIDs[h], ids), append(pathKeys[h], keys)
		}
	}
	for _, lv := range c.levels {
		var ids [][]uint32 // per hierarchy the level drills: the rows' paths
		var keys [][]uint64
		var radix []uint64
		var sizes []int
		for h, d := range lv.depths {
			if d > 0 {
				ids, keys = append(ids, pathIDs[h][d-1]), append(keys, pathKeys[h][d-1])
				radix, sizes = append(radix, c.prefixRadix[h][d]), append(sizes, len(pathKeys[h][d-1]))
			}
		}
		cells := data.NewTupleIndex(sizes, ids, n)
		for r := 0; r < n; r += len(block) {
			m := min(len(block), n-r)
			cells.AddRows(r, r+m, block[:])
			if grown := cells.Len() - len(lv.counts); grown > 0 {
				lv.counts = append(lv.counts, make([]float64, grown)...)
				for mi := range cols {
					lv.sums[mi] = append(lv.sums[mi], make([]float64, grown)...)
					lv.sumsqs[mi] = append(lv.sumsqs[mi], make([]float64, grown)...)
				}
			}
			for j, ci := range block[:m] {
				lv.counts[ci]++
				for mi, col := range cols {
					v := col[r+j]
					lv.sums[mi][ci] += v
					lv.sumsqs[mi][ci] += v * v
				}
			}
		}
		_, paths := cells.Codes()
		lv.keys = make([]uint64, cells.Len())
		for ci := range lv.keys {
			for i, p := range paths[ci*len(ids):][:len(ids)] {
				lv.keys[ci] = lv.keys[ci]*radix[i] + keys[i][p]
			}
		}
		lv.sortByKey()
	}
	return c, nil
}

// sortByKey orders the level's cells by composite key (the storage and
// merge-join order; query paths re-sort by decoded values).
func (lv *level) sortByKey() {
	perm := make([]int, len(lv.keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return lv.keys[perm[a]] < lv.keys[perm[b]] })
	reorderU64(lv.keys, perm)
	reorderF64(lv.counts, perm)
	for mi := range lv.sums {
		reorderF64(lv.sums[mi], perm)
		reorderF64(lv.sumsqs[mi], perm)
	}
}

func reorderU64(s []uint64, perm []int) {
	tmp := make([]uint64, len(s))
	for i, p := range perm {
		tmp[i] = s[p]
	}
	copy(s, tmp)
}

func reorderF64(s []float64, perm []int) {
	tmp := make([]float64, len(s))
	for i, p := range perm {
		tmp[i] = s[p]
	}
	copy(s, tmp)
}

// odometer splits a level's keys, read in their stored ascending order, into
// per-attribute codes in the level's canonical attribute order: each key's
// step from the previous one is added to the last digit and carried up,
// dividing only where a digit overflows (the first key, a step from zero, is
// split by division; at a dense level a later one rarely divides at all).
type odometer struct {
	c      *Cube
	attrs  []int
	digits []uint64
	prev   uint64
}

func (c *Cube) odometer(lv *level) odometer {
	return odometer{c: c, attrs: lv.attrs, digits: make([]uint64, len(lv.attrs))}
}

// next returns key k's codes, which the following call overwrites. k must be
// greater than the key before it (or the first).
func (o *odometer) next(k uint64) []uint64 {
	carry := k - o.prev
	o.prev = k
	for i := len(o.digits) - 1; carry > 0; i-- {
		d, r := o.digits[i]+carry, o.c.attrs[o.attrs[i]].radix
		if d < r {
			o.digits[i] = d
			break
		}
		o.digits[i], carry = d%r, d/r
	}
	return o.digits
}

// measureIndex returns the position of measure in the cube, or -1.
func (c *Cube) measureIndex(measure string) int {
	for mi, m := range c.measures {
		if m == measure {
			return mi
		}
	}
	return -1
}

// resolve maps the requested attributes to flattened indices and
// per-hierarchy depth counts. ok is false on an unknown or duplicate
// attribute.
func (c *Cube) resolve(attrs []string) (flat []int, depths, maxLvl []int, ok bool) {
	flat = make([]int, len(attrs))
	depths = make([]int, len(c.hiers))
	maxLvl = make([]int, len(c.hiers))
	for hi := range maxLvl {
		maxLvl[hi] = -1
	}
	seen := make(map[int]bool, len(attrs))
	for qi, a := range attrs {
		ai, found := c.attrIdx[a]
		if !found || seen[ai] {
			return nil, nil, nil, false
		}
		seen[ai] = true
		flat[qi] = ai
		info := c.attrs[ai]
		depths[info.hier]++
		if info.level > maxLvl[info.hier] {
			maxLvl[info.hier] = info.level
		}
	}
	return flat, depths, maxLvl, true
}

// GroupBy answers a group-by over hierarchy-prefix attributes from the
// materialized level, in O(groups) and without touching rows. The attributes
// may arrive in any order (the engine orders the drilled hierarchy last) as
// long as, within each hierarchy, the ones present form a prefix. The result
// is the row scan's coded relation (agg.GroupByCodes), bit-identical and
// freshly allocated per call; no string is decoded.
// ok=false means the grouping or measure is outside the cube; callers fall
// back to a scan. GroupBy implements agg.Materialized.
func (c *Cube) GroupBy(attrs []string, measure string) (*agg.Result, bool) {
	mi := c.measureIndex(measure)
	if mi < 0 || len(attrs) == 0 {
		return nil, false
	}
	flat, depths, maxLvl, ok := c.resolve(attrs)
	if !ok {
		return nil, false
	}
	for hi := range depths {
		if depths[hi] != maxLvl[hi]+1 {
			return nil, false // a gap: not a hierarchy prefix
		}
	}
	lv := c.levels[c.latticeIndex(depths)]
	pos, dicts, ranks := c.project(lv, flat)
	k, od := len(attrs), c.odometer(lv)
	codes, stats := make([]uint32, len(lv.keys)*k), make([]agg.Stats, len(lv.keys))
	for ci, key := range lv.keys {
		cell := od.next(key)
		row := codes[ci*k : (ci+1)*k]
		for qi, p := range pos {
			row[qi] = uint32(cell[p])
		}
		stats[ci] = agg.Stats{Count: lv.counts[ci], Sum: lv.sums[mi][ci], SumSq: lv.sumsqs[mi][ci]}
	}
	return agg.FromCodes(attrs, measure, dicts, ranks, codes, stats), true
}

// project prepares reading the query attributes flat out of level lv's cells:
// their positions in its canonical order, their dictionaries, and their ranks
// for agg.Order. An attribute its ancestors precede in level order is ranked
// by its path, which orders them too (they pass nil), so the key space is the
// product of the drilled paths; any other by its dictionary.
func (c *Cube) project(lv *level, flat []int) (pos []int, dicts [][]string, ranks [][]uint32) {
	c.ranksOnce.Do(c.rank)
	pos, dicts, ranks = make([]int, len(flat)), make([][]string, len(flat)), make([][]uint32, len(flat))
	for qi, ai := range flat {
		pos[qi] = slices.Index(lv.attrs, ai)
		dicts[qi], ranks[qi] = c.attrs[ai].dict, c.ranks[ai]
		l := c.attrs[ai].level
		path := qi >= l && c.pathRanks[ai] != nil
		for j := 1; path && j <= l; j++ {
			path = flat[qi-j] == ai-j // flattened indices of a hierarchy are consecutive
		}
		if path {
			clear(ranks[qi-l : qi])
			ranks[qi] = c.pathRanks[ai]
		}
	}
	return pos, dicts, ranks
}

// rank computes every attribute's dictionary and path ranks. The level that
// drills one hierarchy to an attribute holds exactly the paths ending in it;
// agg.Order puts them in order by dictionary rank, attribute by attribute.
func (c *Cube) rank() {
	c.ranks, c.pathRanks = make([][]uint32, len(c.attrs)), make([][]uint32, len(c.attrs))
	for ai, a := range c.attrs {
		c.ranks[ai] = agg.Ranks(a.dict)
	}
	depths := make([]int, len(c.hiers))
	for ai, a := range c.attrs {
		depths[a.hier] = a.level + 1
		lv := c.levels[c.latticeIndex(depths)]
		depths[a.hier] = 0
		d := len(lv.attrs) // the hierarchy's attributes up to ai, consecutive
		codes, od := make([]uint32, len(lv.keys)*d), c.odometer(lv)
		for ci, key := range lv.keys {
			for i, code := range od.next(key) {
				codes[ci*d+i] = uint32(code)
			}
		}
		rank := make([]uint32, len(a.dict)) // path rank + 1, 0 for a value no path ends in
		for r, ci := range agg.Order(len(lv.keys), codes, c.ranks[ai+1-d:ai+1]) {
			last := &rank[codes[int(ci)*d+d-1]]
			if *last != 0 {
				rank = nil // two paths end in one value
				break
			}
			*last = uint32(r) + 1
		}
		for i := range rank {
			rank[i] = max(rank[i], 1) - 1
		}
		c.pathRanks[ai] = rank
	}
}

// Merge folds a delta cube (built over an appended batch with BuildRows)
// into c, producing the successor version's cube: cells present in both are
// merged with Stats.Add, and c's keys are re-encoded into the delta's radix
// space when appended values grew the dictionaries (dictionaries grow
// append-only, so codes — and therefore key order — are preserved). Neither
// input is modified.
//
// Exactness: counts merge exactly, and a cell untouched by the delta is
// copied verbatim. A cell present in both sides gains the delta's subtotal
// in one addition, where a row scan of the combined rows would have added
// the batch's values one at a time — so merged sums can differ from that
// scan in the last floating-point bit unless the batch's values are exactly
// representable (integers) or the cell received a single batch row. Every
// derived aggregate remains a correct aggregation of the combined rows.
func (c *Cube) Merge(delta *Cube) (*Cube, error) {
	if len(delta.hiers) != len(c.hiers) || len(delta.attrs) != len(c.attrs) ||
		len(delta.measures) != len(c.measures) || len(delta.levels) != len(c.levels) {
		return nil, fmt.Errorf("cube: merge: schema mismatch")
	}
	for i, h := range c.hiers {
		if delta.hiers[i].Name != h.Name || !slices.Equal(delta.hiers[i].Attrs, h.Attrs) {
			return nil, fmt.Errorf("cube: merge: hierarchy %q differs", h.Name)
		}
	}
	for i, m := range c.measures {
		if delta.measures[i] != m {
			return nil, fmt.Errorf("cube: merge: measure %q differs", m)
		}
	}
	for i := range c.attrs {
		if delta.attrs[i].radix < c.attrs[i].radix {
			return nil, fmt.Errorf("cube: merge: dictionary of %q shrank", c.attrs[i].name)
		}
	}
	out := &Cube{
		name:        c.name,
		rows:        c.rows + delta.rows,
		measures:    c.measures,
		hiers:       c.hiers,
		attrs:       delta.attrs,
		attrIdx:     delta.attrIdx,
		firstAttr:   delta.firstAttr,
		prefixRadix: delta.prefixRadix,
		levels:      make([]*level, len(c.levels)),
	}
	for li, base := range c.levels {
		dlv := delta.levels[li]
		// Re-encode the base keys into the delta's (possibly larger) radix
		// space; mixed-radix encoding preserves code-tuple order, so the
		// re-encoded keys stay sorted and a linear merge-join suffices.
		rekeys, od := make([]uint64, len(base.keys)), c.odometer(base)
		for i, k := range base.keys {
			nk := uint64(0)
			for ai, code := range od.next(k) {
				nk = nk*delta.attrs[base.attrs[ai]].radix + code
			}
			rekeys[i] = nk
		}
		mlv := &level{depths: base.depths, attrs: base.attrs}
		mlv.sums = make([][]float64, len(c.measures))
		mlv.sumsqs = make([][]float64, len(c.measures))
		bi, di := 0, 0
		for bi < len(rekeys) || di < len(dlv.keys) {
			switch {
			case di == len(dlv.keys) || (bi < len(rekeys) && rekeys[bi] < dlv.keys[di]):
				mlv.appendCell(rekeys[bi], base.cell(bi))
				bi++
			case bi == len(rekeys) || dlv.keys[di] < rekeys[bi]:
				mlv.appendCell(dlv.keys[di], dlv.cell(di))
				di++
			default: // equal keys: merge the partitions' statistics
				bc, dc := base.cell(bi), dlv.cell(di)
				merged := make([]agg.Stats, len(bc))
				for mi := range bc {
					merged[mi] = bc[mi].Add(dc[mi])
				}
				mlv.appendCell(rekeys[bi], merged)
				bi++
				di++
			}
		}
		out.levels[li] = mlv
	}
	return out, nil
}

// cell returns the per-measure statistics of cell ci.
func (lv *level) cell(ci int) []agg.Stats {
	out := make([]agg.Stats, len(lv.sums))
	for mi := range lv.sums {
		out[mi] = agg.Stats{Count: lv.counts[ci], Sum: lv.sums[mi][ci], SumSq: lv.sumsqs[mi][ci]}
	}
	if len(out) == 0 {
		out = []agg.Stats{{Count: lv.counts[ci]}}
	}
	return out
}

// appendCell appends one cell given its per-measure statistics.
func (lv *level) appendCell(k uint64, stats []agg.Stats) {
	lv.keys = append(lv.keys, k)
	lv.counts = append(lv.counts, stats[0].Count)
	for mi := range lv.sums {
		lv.sums[mi] = append(lv.sums[mi], stats[mi].Sum)
		lv.sumsqs[mi] = append(lv.sumsqs[mi], stats[mi].SumSq)
	}
}

// Table is one lattice level's cells in storage order: strictly ascending
// composite keys, each cell's row count, and per measure the cells' sums and
// sums of squares. internal/store persists a cube as its tables.
type Table struct {
	Keys   []uint64
	Counts []float64
	Sums   [][]float64 // per measure, aligned with Keys
	SumSqs [][]float64
}

// Tables returns the cube's cell tables in lattice order. They are the
// cube's own: callers must not modify them.
func (c *Cube) Tables() []Table {
	out := make([]Table, len(c.levels))
	for li, lv := range c.levels {
		out[li] = Table{Keys: lv.keys, Counts: lv.counts, Sums: lv.sums, SumSqs: lv.sumsqs}
	}
	return out
}

// FromTables assembles the cube of ds from its cell tables in lattice order,
// as Tables returned them, and validates them against ds. It keeps the
// tables without copying, so views over a file mapping stay views and die
// with the mapping.
func FromTables(ds *data.Dataset, tables []Table) (*Cube, error) {
	c, err := skeleton(ds)
	if err != nil {
		return nil, err
	}
	if len(tables) != len(c.levels) {
		return nil, fmt.Errorf("cube: %d cell tables, schema lattice has %d levels", len(tables), len(c.levels))
	}
	for li, t := range tables {
		n := len(t.Keys)
		ragged := len(t.Counts) != n || len(t.Sums) != len(c.measures) || len(t.SumSqs) != len(c.measures)
		for mi := 0; !ragged && mi < len(t.Sums); mi++ {
			ragged = len(t.Sums[mi]) != n || len(t.SumSqs[mi]) != n
		}
		if ragged {
			return nil, fmt.Errorf("cube: level %d: cell table columns differ in length", li)
		}
		lv := c.levels[li]
		lv.keys, lv.counts, lv.sums, lv.sumsqs = t.Keys, t.Counts, t.Sums, t.SumSqs
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// NumRows returns the number of rows the cube summarizes.
func (c *Cube) NumRows() int { return c.rows }

// NumLevels returns the number of materialized lattice groupings.
func (c *Cube) NumLevels() int { return len(c.levels) }

// NumCells returns the total number of cells across all levels.
func (c *Cube) NumCells() int {
	n := 0
	for _, lv := range c.levels {
		n += len(lv.keys)
	}
	return n
}

// validate checks the structural invariants stored cell tables must satisfy:
// strictly ascending in-range keys, positive integral counts, and every
// level partitioning exactly the cube's rows.
func (c *Cube) validate() error {
	for li, lv := range c.levels {
		max := uint64(1)
		for hi, d := range lv.depths {
			max *= c.prefixRadix[hi][d]
		}
		var total float64
		prev := uint64(0)
		for ci, k := range lv.keys {
			if ci > 0 && k <= prev {
				return fmt.Errorf("cube: level %d: keys not strictly ascending", li)
			}
			prev = k
			if k >= max {
				return fmt.Errorf("cube: level %d: key %d out of range (key space %d)", li, k, max)
			}
			cnt := lv.counts[ci]
			if cnt < 1 || cnt != math.Trunc(cnt) {
				return fmt.Errorf("cube: level %d cell %d: bad count %v", li, ci, cnt)
			}
			total += cnt
		}
		if total != float64(c.rows) {
			return fmt.Errorf("cube: level %d covers %v rows, cube has %d", li, total, c.rows)
		}
	}
	return nil
}
