package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// GenerateAbsentee simulates the North Carolina 2020 absentee dataset of
// §5.1.4: 179K records over four single-attribute hierarchies with the
// paper's cardinalities — county (100), party (6), week (53), gender (3).
// The synthetic measure "one" carries the COUNT complaints.
func GenerateAbsentee(seed int64, rows int) *data.Dataset {
	if rows <= 0 {
		rows = 179_000
	}
	rng := rand.New(rand.NewSource(seed))
	h := []data.Hierarchy{
		{Name: "county", Attrs: []string{"county"}},
		{Name: "party", Attrs: []string{"party"}},
		{Name: "week", Attrs: []string{"week"}},
		{Name: "gender", Attrs: []string{"gender"}},
	}
	ds := data.New("absentee", []string{"county", "party", "week", "gender"}, []string{"one"}, h)
	counties := make([]string, 100)
	for i := range counties {
		counties[i] = fmt.Sprintf("county%03d", i)
	}
	parties := []string{"DEM", "REP", "UNA", "LIB", "GRE", "CST"}
	weeks := make([]string, 53)
	for i := range weeks {
		weeks[i] = fmt.Sprintf("w%02d", i)
	}
	genders := []string{"F", "M", "U"}
	for r := 0; r < rows; r++ {
		ds.AppendRowVals([]string{
			counties[rng.Intn(len(counties))],
			parties[rng.Intn(len(parties))],
			weeks[rng.Intn(len(weeks))],
			genders[rng.Intn(len(genders))],
		}, []float64{1})
	}
	return ds
}

// AbsenteeDrillOrder is the paper's arbitrary drill sequence for Figure 10.
var AbsenteeDrillOrder = []string{"county", "party", "week", "gender"}

// GenerateCompas simulates the COMPAS recidivism dataset of §5.1.4: 60,843
// records over a three-attribute time hierarchy (year, month, day; 704
// distinct days) and single-attribute age / race / charge-degree
// hierarchies. The measure "score" is the decile risk score.
func GenerateCompas(seed int64, rows int) *data.Dataset {
	if rows <= 0 {
		rows = 60_843
	}
	rng := rand.New(rand.NewSource(seed))
	h := []data.Hierarchy{
		{Name: "time", Attrs: []string{"year", "month", "day"}},
		{Name: "age", Attrs: []string{"age"}},
		{Name: "race", Attrs: []string{"race"}},
		{Name: "charge", Attrs: []string{"charge"}},
	}
	ds := data.New("compas", []string{"year", "month", "day", "age", "race", "charge"}, []string{"score"}, h)
	// 704 days spanning 2013-01-01 .. 2014-12-05 (naive 31-day months keep
	// the day → month → year FDs intact).
	type day struct{ y, m, d string }
	var days []day
	for y := 2013; len(days) < 704; y++ {
		for m := 1; m <= 12 && len(days) < 704; m++ {
			for dd := 1; dd <= 31 && len(days) < 704; dd++ {
				days = append(days, day{
					y: fmt.Sprintf("%d", y),
					m: fmt.Sprintf("%d-%02d", y, m),
					d: fmt.Sprintf("%d-%02d-%02d", y, m, dd),
				})
			}
		}
	}
	ages := []string{"under25", "25to45", "over45"}
	races := []string{"AfricanAmerican", "Asian", "Caucasian", "Hispanic", "NativeAmerican", "Other"}
	charges := []string{"F", "M", "O"}
	for r := 0; r < rows; r++ {
		d := days[rng.Intn(len(days))]
		ds.AppendRowVals([]string{
			d.y, d.m, d.d,
			ages[rng.Intn(len(ages))],
			races[rng.Intn(len(races))],
			charges[rng.Intn(len(charges))],
		}, []float64{float64(1 + rng.Intn(10))})
	}
	return ds
}

// CompasDrillOrder is the paper's arbitrary drill sequence for Figure 10:
// three time levels, then age, race and charge degree.
var CompasDrillOrder = []string{"time", "time", "time", "age", "race", "charge"}

// GenerateTall builds a dataset of the repository benchmark's tall shape: geo
// of depth 3 (480 villages), time and prod of depth 2 (48 months, 12 items),
// 60 % of the leaf combinations present with a geometric number of rows each
// (≈ 300k), shuffled, two integer-valued measures — a 36-level lattice of
// ≈ 166k leaf cells.
func GenerateTall() *data.Dataset {
	rng := rand.New(rand.NewSource(1))
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "district", "village"}},
		{Name: "time", Attrs: []string{"year", "month"}},
		{Name: "prod", Attrs: []string{"category", "item"}},
	}
	var leaves [][3]int
	for v := 0; v < 480; v++ {
		for m := 0; m < 48; m++ {
			for it := 0; it < 12; it++ {
				if rng.Float64() >= 0.6 {
					continue
				}
				leaves = append(leaves, [3]int{v, m, it})
				for rng.Float64() < 0.8/1.8 { // 0.8 further rows in the mean
					leaves = append(leaves, [3]int{v, m, it})
				}
			}
		}
	}
	rng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
	ds := data.New("tall", []string{"region", "district", "village", "year", "month", "category", "item"}, []string{"units", "cost"}, h)
	for _, l := range leaves {
		v, m, it := l[0], l[1], l[2]
		units := float64(80 + rng.Intn(40))
		ds.AppendRowVals([]string{
			fmt.Sprintf("r%02d", v/60), fmt.Sprintf("r%02d-d%02d", v/60, v/10%6), fmt.Sprintf("r%02d-d%02d-v%02d", v/60, v/10%6, v%10),
			fmt.Sprintf("%d", 2015+m/12), fmt.Sprintf("%d-%02d", 2015+m/12, m%12+1),
			fmt.Sprintf("c%02d", it/4), fmt.Sprintf("c%02d-i%02d", it/4, it%4),
		}, []float64{units, 3*units + float64(rng.Intn(30))})
	}
	return ds
}
