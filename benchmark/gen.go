package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/store"
)

// The generator is the only place the seed is consumed: everything the
// program under test sees (CSV bytes, .rst files, complaint strings, append
// batches) is derived from a dataset built here.

// hierarchySpec is the schema of every generated dataset, in the compact
// notation the CLI, the server and the SDK share.
const hierarchySpec = "geo:region,district,village;time:year,month;prod:category,item"

var (
	dimNames     = []string{"region", "district", "village", "year", "month", "category", "item"}
	measureNames = []string{"units", "cost"}
)

// shape fixes a dataset's size. Counts are per parent (districts per region,
// villages per district, ...), so the leaf grid is
// regions·districts·villages × years·months × categories·items.
type shape struct {
	name                         string
	regions, districts, villages int
	years, months                int
	categories, items            int
	// fill is the share of leaf combinations that hold at least one row.
	fill float64
	// extraRows is the mean number of rows a present leaf holds beyond its
	// first (geometric), so rows ≈ leaves·fill·(1+extraRows).
	extraRows float64
}

// Shapes. tall: ≈ 300k rows over ≈ 166k present leaf combinations — rows far
// outnumber the shallow groups an interactive session looks at, so it is
// scan-bound without a cube. wide: ≈ 11k leaf groups at high fill, sized so
// one cold recommend at the leaf level costs on the order of 100 ms.
// smoke: the test-suite scale.
var (
	shapeTall  = shape{name: "tall", regions: 8, districts: 6, villages: 10, years: 4, months: 12, categories: 3, items: 4, fill: 0.6, extraRows: 0.8}
	shapeWide  = shape{name: "wide", regions: 3, districts: 2, villages: 5, years: 2, months: 12, categories: 4, items: 4, fill: 0.9, extraRows: 1.0}
	shapeSmoke = shape{name: "smoke", regions: 2, districts: 2, villages: 3, years: 2, months: 3, categories: 2, items: 2, fill: 0.8, extraRows: 6.0}
)

func (s shape) villagesTotal() int { return s.regions * s.districts * s.villages }
func (s shape) monthsTotal() int   { return s.years * s.months }
func (s shape) itemsTotal() int    { return s.categories * s.items }
func (s shape) leaves() int        { return s.villagesTotal() * s.monthsTotal() * s.itemsTotal() }

// row is one generated record: leaf indices into the three hierarchies plus
// the two integer-valued measures.
type row struct {
	village, month, item int32
	units, cost          float64
}

// genData is one generated dataset: the base rows the workload starts from
// and a reserve of further rows (same model) that ingest workloads append.
type genData struct {
	shape   shape
	base    []row
	reserve []row

	// Value names per leaf index, ancestry encoded in the name so the
	// hierarchy functional dependencies hold by construction.
	villageDims [][3]string // region, district, village
	monthDims   [][2]string // year, month
	itemDims    [][2]string // category, item

	// Additive effects of the value model.
	effVillage, effMonth, effItem []float64
}

// generate builds the dataset for a shape. reserveRows further rows are
// drawn from the same model over the whole leaf grid (present or not).
func generate(sh shape, seed int64, reserveRows int) *genData {
	rng := rand.New(rand.NewSource(seed))
	g := &genData{shape: sh}

	// Names and per-level effects: a leaf's effect is the sum of its
	// ancestors' and its own, so every level of every hierarchy carries
	// signal for the multi-level model.
	for r := 0; r < sh.regions; r++ {
		er := rng.NormFloat64() * 12
		for d := 0; d < sh.districts; d++ {
			ed := er + rng.NormFloat64()*6
			for v := 0; v < sh.villages; v++ {
				g.villageDims = append(g.villageDims, [3]string{
					fmt.Sprintf("r%02d", r),
					fmt.Sprintf("r%02d-d%02d", r, d),
					fmt.Sprintf("r%02d-d%02d-v%02d", r, d, v),
				})
				g.effVillage = append(g.effVillage, ed+rng.NormFloat64()*3)
			}
		}
	}
	for y := 0; y < sh.years; y++ {
		ey := float64(y)*4 + rng.NormFloat64()*2
		for m := 0; m < sh.months; m++ {
			g.monthDims = append(g.monthDims, [2]string{
				strconv.Itoa(2015 + y),
				fmt.Sprintf("%d-%02d", 2015+y, m+1),
			})
			g.effMonth = append(g.effMonth, ey+6*math.Sin(float64(m)/float64(sh.months)*2*math.Pi)+rng.NormFloat64())
		}
	}
	for c := 0; c < sh.categories; c++ {
		ec := rng.NormFloat64() * 10
		for i := 0; i < sh.items; i++ {
			g.itemDims = append(g.itemDims, [2]string{
				fmt.Sprintf("c%02d", c),
				fmt.Sprintf("c%02d-i%02d", c, i),
			})
			g.effItem = append(g.effItem, ec+rng.NormFloat64()*4)
		}
	}

	nv, nm, ni := sh.villagesTotal(), sh.monthsTotal(), sh.itemsTotal()
	for v := 0; v < nv; v++ {
		for m := 0; m < nm; m++ {
			for i := 0; i < ni; i++ {
				if rng.Float64() >= sh.fill {
					continue
				}
				n := 1
				for sh.extraRows > 0 && rng.Float64() < sh.extraRows/(1+sh.extraRows) {
					n++
				}
				for k := 0; k < n; k++ {
					g.base = append(g.base, g.draw(rng, v, m, i))
				}
			}
		}
	}
	// Real feeds are not sorted by leaf; shuffle so dictionary order and
	// scan locality are not an artefact of the generation loop.
	rng.Shuffle(len(g.base), func(a, b int) { g.base[a], g.base[b] = g.base[b], g.base[a] })
	for k := 0; k < reserveRows; k++ {
		g.reserve = append(g.reserve, g.draw(rng, rng.Intn(nv), rng.Intn(nm), rng.Intn(ni)))
	}
	return g
}

// draw samples one row of the leaf. Measures are rounded to non-negative
// integers: sums stay exact in float64, so sharded scatter-gather merges are
// byte-identical to a single scan (reptile.WithShards' contract).
func (g *genData) draw(rng *rand.Rand, v, m, i int) row {
	mu := 100 + g.effVillage[v] + g.effMonth[m] + g.effItem[i]
	units := math.Max(0, math.Round(mu+rng.NormFloat64()*8))
	cost := math.Max(0, math.Round(3*units+rng.NormFloat64()*15))
	return row{village: int32(v), month: int32(m), item: int32(i), units: units, cost: cost}
}

// dims returns a row's dimension values in dimNames order.
func (g *genData) dims(r row) []string {
	v, m, i := g.villageDims[r.village], g.monthDims[r.month], g.itemDims[r.item]
	return []string{v[0], v[1], v[2], m[0], m[1], i[0], i[1]}
}

// csvHeader is the first line of every CSV the generator emits.
var csvHeader = strings.Join(append(append([]string(nil), dimNames...), measureNames...), ",") + "\n"

// appendCSV renders rows as CSV lines (no header). Values never need
// quoting: names are [a-z0-9-] and measures are integers.
func (g *genData) appendCSV(buf *bytes.Buffer, rows []row) {
	for _, r := range rows {
		for _, d := range g.dims(r) {
			buf.WriteString(d)
			buf.WriteByte(',')
		}
		buf.WriteString(strconv.FormatFloat(r.units, 'f', -1, 64))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(r.cost, 'f', -1, 64))
		buf.WriteByte('\n')
	}
}

// csv renders header + rows.
func (g *genData) csv(rows []row) []byte {
	var buf bytes.Buffer
	buf.Grow(len(rows)*48 + len(csvHeader))
	buf.WriteString(csvHeader)
	g.appendCSV(&buf, rows)
	return buf.Bytes()
}

// hierarchies parses hierarchySpec; the spec is a constant, so failure is a
// bug.
func hierarchies() []data.Hierarchy {
	hs, err := data.ParseHierarchySpec(hierarchySpec)
	if err != nil {
		panic(err)
	}
	return hs
}

// dataset builds the in-memory dataset over rows, in row order — the same
// rows the CSV carries, so both routes encode identical dictionaries.
func (g *genData) dataset(name string, rows []row) *data.Dataset {
	ds := data.New(name, dimNames, measureNames, hierarchies())
	for _, r := range rows {
		ds.AppendRowVals(g.dims(r), []float64{r.units, r.cost})
	}
	return ds
}

// storeRows converts rows to the ingestion row type.
func (g *genData) storeRows(rows []row) []store.Row {
	out := make([]store.Row, len(rows))
	for i, r := range rows {
		out[i] = store.Row{Dims: g.dims(r), Measures: []float64{r.units, r.cost}}
	}
	return out
}

// jsonDigest is the digest of v's JSON encoding; scripts are plain data, so
// failing to encode one is a bug.
func jsonDigest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return digest(b)
}

// digest is the hex SHA-256 of the concatenated parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
