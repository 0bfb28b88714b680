package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// ReadCSV loads a dataset from CSV. Columns named in measureNames are parsed
// as float64 measures; all other columns become dimensions. The header row is
// required. hierarchies may be nil and attached later.
//
// Rows stream into the dataset's dictionary-coded columns: each dimension
// keeps one interned copy of every distinct value plus a uint32 code per row,
// so resident memory is bounded by the size of the encoded output (what a
// .rst snapshot of the dataset would hold), not by the raw input text.
// Dictionaries are in first-appearance order, which store.FromDataset
// reuses, so CSV → snapshot conversion is deterministic.
func ReadCSV(r io.Reader, name string, measureNames []string, hierarchies []Hierarchy) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...)

	// Reject duplicate header names: columns land in name-keyed maps, so a
	// later duplicate would silently clobber the earlier column's values.
	seen := make(map[string]bool, len(header))
	for _, c := range header {
		if seen[c] {
			return nil, fmt.Errorf("data: duplicate column %q in CSV header", c)
		}
		seen[c] = true
	}

	isMeasure := make(map[string]bool, len(measureNames))
	for _, m := range measureNames {
		if !seen[m] {
			return nil, fmt.Errorf("data: measure column %q not in CSV header", m)
		}
		isMeasure[m] = true
	}
	var dimNames, msNames []string
	for _, c := range header {
		if isMeasure[c] {
			msNames = append(msNames, c)
		} else {
			dimNames = append(dimNames, c)
		}
	}

	// Header position → the dataset column it feeds: a dimension column, or
	// (where dimCols is nil) the msSlot-th measure.
	d := New(name, dimNames, msNames, hierarchies)
	dimCols := make([]*dimCol, len(header))
	msSlot := make([]int, len(header))
	vals := make([][]float64, len(msNames))
	mi := 0
	for col, c := range header {
		if isMeasure[c] {
			msSlot[col] = mi
			mi++
		} else {
			dimCols[col] = d.dims[c]
		}
	}

	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV line %d: %w", line+1, err)
		}
		line++
		for col, c := range header {
			if e := dimCols[col]; e != nil {
				code, err := e.intern(rec[col])
				if err != nil {
					return nil, fmt.Errorf("data: line %d column %q: %w", line, c, err)
				}
				e.codes = append(e.codes, code)
				continue
			}
			v, err := strconv.ParseFloat(rec[col], 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d column %q: %w", line, c, err)
			}
			// ParseFloat accepts "NaN" and "±Inf", which would silently
			// poison every downstream Sum/SumSq and model fit.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("data: line %d column %q: non-finite measure value %q", line, c, rec[col])
			}
			vals[msSlot[col]] = append(vals[msSlot[col]], v)
		}
		d.n++
	}
	for i, c := range d.measureNames {
		d.measures[c] = vals[i]
	}
	// Validate hierarchy metadata at load time so hierarchies referencing
	// columns absent from the CSV fail here, with the file context, instead
	// of surfacing later (or never, for callers that skip engine
	// construction). Auxiliary tables load with no hierarchies and skip this.
	if len(hierarchies) > 0 {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("data: CSV dataset %q: %w", name, err)
		}
	}
	return d, nil
}

// ReadCSVFile loads a dataset from a CSV file on disk.
func ReadCSVFile(path, name string, measureNames []string, hierarchies []Hierarchy) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name, measureNames, hierarchies)
}

// WriteCSV serializes the dataset: dimensions first, then measures, in
// declaration order.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(d.DimNames(), d.MeasureNames()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for row := 0; row < d.n; row++ {
		i := 0
		for _, c := range d.dimNames {
			col := d.dims[c]
			rec[i] = col.dict[col.codes[row]]
			i++
		}
		for _, m := range d.measureNames {
			rec[i] = strconv.FormatFloat(d.measures[m][row], 'g', -1, 64)
			i++
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
