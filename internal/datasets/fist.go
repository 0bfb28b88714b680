package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
)

// FIST simulates the Columbia FIST drought-survey dataset of §5.4: farmer
// severity reports (1–10) over a geography hierarchy Region → District →
// Village and a Year hierarchy, plus a satellite rainfall auxiliary table
// per (village, year), and the 22 scripted complaints of the user study
// (20 resolvable, 2 designed failures mirroring Appendix M).
type FIST struct {
	DS       *data.Dataset
	Rainfall *data.Dataset
	Study    []FISTComplaint

	regions   []string
	districts map[string][]string // region → districts
	villages  map[string][]string // district → villages
	years     []string
}

// FISTStep is one drill-down step of a study scenario: the complaint to
// submit and the acceptable top-1 values of the newly added attribute.
// RequireAll (used by the two-district STD failure) demands every listed
// value simultaneously at rank 1, which a single recommendation cannot
// satisfy — reproducing the Appendix M failure mode.
type FISTStep struct {
	GroupBy    []string
	Complaint  core.Complaint
	Hierarchy  string
	Attr       string
	Want       []string
	RequireAll bool
}

// FISTComplaint is one user-study scenario.
type FISTComplaint struct {
	ID            int
	Desc          string
	Steps         []FISTStep
	ExpectResolve bool
}

// fistSeverity clamps a latent severity into the 1–10 reporting scale.
func fistSeverity(x float64) float64 {
	return math.Max(1, math.Min(10, math.Round(x)))
}

// GenerateFIST builds the simulated survey with all study errors injected.
func GenerateFIST(seed int64) *FIST {
	rng := rand.New(rand.NewSource(seed))
	f := &FIST{
		districts: map[string][]string{},
		villages:  map[string][]string{},
	}
	f.regions = []string{"Amhara", "Oromia", "Tigray"}
	for y := 2004; y <= 2015; y++ {
		f.years = append(f.years, fmt.Sprintf("y%d", y))
	}
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	ds := data.New("fist", []string{"region", "district", "village", "year"}, []string{"severity"}, h)
	rain := data.New("rainfall", []string{"village", "year"}, []string{"rainfall"}, nil)

	regionEff := map[string]float64{"Amhara": -0.4, "Oromia": 0.2, "Tigray": 0.7}
	yearShock := map[string]float64{}
	for _, y := range f.years {
		yearShock[y] = rng.NormFloat64() * 1.2
	}
	// Latent drought per (village, year) drives both severity and rainfall.
	for _, r := range f.regions {
		for d := 0; d < 4; d++ {
			dist := fmt.Sprintf("%s_D%d", r, d)
			f.districts[r] = append(f.districts[r], dist)
			distEff := rng.NormFloat64() * 0.25
			for v := 0; v < 6; v++ {
				vil := fmt.Sprintf("%s_V%d", dist, v)
				f.villages[dist] = append(f.villages[dist], vil)
				vilEff := rng.NormFloat64() * 0.2
				for _, y := range f.years {
					drought := regionEff[r] + yearShock[y] + distEff + vilEff + rng.NormFloat64()*0.2
					rain.AppendRowVals([]string{vil, y}, []float64{120 - 18*drought + rng.NormFloat64()*6})
					for rep := 0; rep < 8; rep++ {
						ds.AppendRowVals([]string{r, dist, vil, y},
							[]float64{fistSeverity(5.5 + 1.6*drought + rng.NormFloat64()*0.9)})
					}
				}
			}
		}
	}
	f.DS = ds
	f.Rainfall = rain
	f.buildStudy(rng)
	return f
}

// shiftVillageYear drifts every severity report of (village, year), clamped
// to the reporting scale.
func (f *FIST) shiftVillageYear(village, year string, delta float64) {
	vcol := f.DS.Dim("village")
	ycol := f.DS.Dim("year")
	sev := f.DS.Measure("severity")
	for i := range sev {
		if vcol[i] == village && ycol[i] == year {
			sev[i] = fistSeverity(sev[i] + delta)
		}
	}
}

// meanVillageYear returns the current mean severity of (village, year).
func (f *FIST) meanVillageYear(village, year string) float64 {
	vcol := f.DS.Dim("village")
	ycol := f.DS.Dim("year")
	sev := f.DS.Measure("severity")
	var sum, n float64
	for i := range sev {
		if vcol[i] == village && ycol[i] == year {
			sum += sev[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// moveVillageYear relabels (village, year) reports into the next year — the
// "farmers confuse planting and harvesting years" error.
func (f *FIST) moveVillageYear(village, year, nextYear string) {
	vcol := f.DS.Dim("village")
	ycol := f.DS.Dim("year")
	for i := range ycol {
		if vcol[i] == village && ycol[i] == year {
			f.DS.SetDimValue("year", i, nextYear)
		}
	}
}

// buildStudy injects the 22 scenarios' errors and scripts their complaints.
func (f *FIST) buildStudy(rng *rand.Rand) {
	type target struct{ region, district, village, year string }
	// Scenario targets must not collide: stacking two corruptions on the
	// same (district, year) would change what a district complaint sees,
	// and a region-level STD complaint needs its whole (region, year) free.
	// Scenarios 21 and 22 reserve their (region, year) slices up front.
	usedDist := map[string]bool{}
	usedRegion := map[string]bool{}
	reservedRegion := map[string]bool{
		"Oromia/" + f.years[2]: true,
		"Tigray/" + f.years[9]: true,
	}
	// The cursor enumerates 3 regions × 4 districts × 12 years = 144
	// distinct slots (region fastest, then district, then year), far more
	// than the 20 scenarios need even after collisions.
	cursor := 0
	pick := func(exclusiveRegion bool) target {
		for {
			i := cursor
			cursor++
			if i >= 3*4*len(f.years) {
				panic("datasets: FIST study ran out of scenario slots")
			}
			r := f.regions[i%len(f.regions)]
			d := f.districts[r][(i/3)%4]
			v := f.villages[d][(i*7)%6]
			y := f.years[(i/12)%len(f.years)]
			regionKey := r + "/" + y
			distKey := d + "/" + y
			if reservedRegion[regionKey] || usedDist[distKey] {
				continue
			}
			if exclusiveRegion && usedRegion[regionKey] {
				continue
			}
			usedDist[distKey] = true
			usedRegion[regionKey] = true
			if exclusiveRegion {
				reservedRegion[regionKey] = true
			}
			return target{r, d, v, y}
		}
	}
	villageStep := func(tg target, a agg.Func, dir core.Direction) FISTStep {
		return FISTStep{
			GroupBy: []string{"region", "district", "year"},
			Complaint: core.Complaint{
				Agg: a, Measure: "severity",
				Tuple:     data.Predicate{"region": tg.region, "district": tg.district, "year": tg.year},
				Direction: dir,
			},
			Hierarchy: "geo", Attr: "village", Want: []string{tg.village},
		}
	}

	id := 0
	add := func(desc string, resolve bool, steps ...FISTStep) {
		id++
		f.Study = append(f.Study, FISTComplaint{ID: id, Desc: desc, Steps: steps, ExpectResolve: resolve})
	}

	// Scenarios 1–8: misremembered severities (village-year drift), caught
	// from a district-level MEAN complaint.
	for i := 0; i < 8; i++ {
		tg := pick(false)
		delta := 3.5
		dir := core.TooHigh
		if i%2 == 1 {
			delta, dir = -3.5, core.TooLow
		}
		f.shiftVillageYear(tg.village, tg.year, delta)
		add(fmt.Sprintf("%s mean %s in %s (misremembered reports in %s)", tg.district, dir, tg.year, tg.village),
			true, villageStep(tg, agg.Mean, dir))
	}

	// Scenarios 9–12: planting/harvest year confusion (reports shifted to
	// the next year), caught from a district-level COUNT complaint.
	for i := 8; i < 12; i++ {
		tg := pick(false)
		yi := indexOfString(f.years, tg.year)
		if yi == len(f.years)-1 {
			yi--
			tg.year = f.years[yi]
		}
		// The spill-over year carries the surplus reports; keep other
		// scenarios away from it.
		usedDist[tg.district+"/"+f.years[yi+1]] = true
		f.moveVillageYear(tg.village, tg.year, f.years[yi+1])
		add(fmt.Sprintf("%s count too low in %s (year confusion in %s)", tg.district, tg.year, tg.village),
			true, villageStep(tg, agg.Count, core.TooLow))
	}

	// Scenarios 13–16: non-drought years reported severe, caught from a
	// district MEAN complaint.
	for i := 12; i < 16; i++ {
		tg := pick(false)
		f.shiftVillageYear(tg.village, tg.year, 4)
		add(fmt.Sprintf("%s mean too high in %s (non-drought reported severe in %s)", tg.district, tg.year, tg.village),
			true, villageStep(tg, agg.Mean, core.TooHigh))
	}

	// Scenarios 17–20: region-level STD complaints: one village far off
	// inflates the region-year dispersion; the drill path goes district
	// then village. The drift direction moves away from the 1–10 clamp so
	// the outlier signal survives severe years.
	for i := 16; i < 20; i++ {
		tg := pick(true)
		delta, dir := 4.5, core.TooHigh
		if f.meanVillageYear(tg.village, tg.year) > 5.5 {
			delta, dir = -4.5, core.TooLow
		}
		f.shiftVillageYear(tg.village, tg.year, delta)
		add(fmt.Sprintf("%s std too high in %s (outlier village %s)", tg.region, tg.year, tg.village),
			true,
			FISTStep{
				GroupBy: []string{"region", "year"},
				Complaint: core.Complaint{
					Agg: agg.Std, Measure: "severity",
					Tuple:     data.Predicate{"region": tg.region, "year": tg.year},
					Direction: core.TooHigh,
				},
				Hierarchy: "geo", Attr: "district", Want: []string{tg.district},
			},
			villageStep(tg, agg.Mean, dir),
		)
	}

	// Scenario 21 (designed failure): an inherently ambiguous complaint —
	// every district of the region is mildly low, so no single drill-down
	// group explains the deviation and team members disagreed on the cause.
	{
		r := "Oromia"
		y := f.years[2]
		for _, d := range f.districts[r] {
			for _, v := range f.villages[d] {
				f.shiftVillageYear(v, y, -1.5)
			}
		}
		add(fmt.Sprintf("%s mean too low in %s (ambiguous: all districts low)", r, y), false,
			FISTStep{
				GroupBy: []string{"region", "year"},
				Complaint: core.Complaint{
					Agg: agg.Mean, Measure: "severity",
					Tuple:     data.Predicate{"region": r, "year": y},
					Direction: core.TooLow,
				},
				Hierarchy: "geo", Attr: "district", Want: nil, // no single true target
			})
	}

	// Scenario 22 (designed failure): the Appendix M STD parabola — two
	// districts drift in opposite directions; repairing either one alone
	// does not reduce the region-year standard deviation, and Reptile can
	// only return one of the two.
	{
		r := "Tigray"
		y := f.years[9]
		dA, dB := f.districts[r][0], f.districts[r][1]
		for _, v := range f.villages[dA] {
			f.shiftVillageYear(v, y, 2.5)
		}
		for _, v := range f.villages[dB] {
			f.shiftVillageYear(v, y, -2.5)
		}
		add(fmt.Sprintf("%s std too high in %s (two districts %s and %s must be fixed together)", r, y, dA, dB), false,
			FISTStep{
				GroupBy: []string{"region", "year"},
				Complaint: core.Complaint{
					Agg: agg.Std, Measure: "severity",
					Tuple:     data.Predicate{"region": r, "year": y},
					Direction: core.TooHigh,
				},
				Hierarchy: "geo", Attr: "district",
				Want: []string{dA, dB}, RequireAll: true,
			})
	}
	_ = rng
}

func indexOfString(list []string, v string) int {
	for i, x := range list {
		if x == v {
			return i
		}
	}
	return -1
}
