package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// CSVReader is the one CSV reader (see the package comment): a header of
// distinct names, then records. Every parse error names the row and the line,
// past row + 1 once a quoted field has spanned lines, and a field's the column.
type CSVReader struct {
	Header []string
	what   string // names the input in errors: "CSV", "append CSV"
	cr     *csv.Reader
	row    int
}

// NewCSVReader reads r's header; what names the input in errors.
func NewCSVReader(r io.Reader, what string) (*CSVReader, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading %s header: %w", what, err)
	}
	cr.ReuseRecord = true // after the header, which no later Read overwrites
	// Columns are looked up by name: a duplicate would clobber the earlier.
	seen := make(map[string]bool, len(header))
	for _, c := range header {
		if seen[c] {
			return nil, fmt.Errorf("duplicate column %q in %s header", c, what)
		}
		seen[c] = true
	}
	return &CSVReader{Header: header, what: what, cr: cr}, nil
}

// Read returns the next record, or io.EOF after the last. The next Read reuses
// the slice, not its fields, which share one allocation per record.
func (r *CSVReader) Read() ([]string, error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return nil, err
	}
	r.row++
	if pe, ok := err.(*csv.ParseError); ok {
		return nil, fmt.Errorf("reading %s row %d (line %d): %w", r.what, r.row, pe.Line, err)
	}
	return rec, err // nil, or a read error of the source, which has no line
}

// Measure parses field col of the record Read returned as a measure, which
// must be finite: "NaN" and "±Inf" would poison every Sum/SumSq and fit.
func (r *CSVReader) Measure(rec []string, col int) (float64, error) {
	v, err := strconv.ParseFloat(rec[col], 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite measure value %q", rec[col])
	}
	if err != nil {
		return 0, r.fieldError(col, err)
	}
	return v, nil
}

// fieldError locates err at field col of the record Read returned.
func (r *CSVReader) fieldError(col int, err error) error {
	line, _ := r.cr.FieldPos(col)
	return fmt.Errorf("%s row %d (line %d) column %q: %w", r.what, r.row, line, r.Header[col], err)
}

// ReadCSV loads a dataset from CSV. Columns named in measureNames are parsed
// as float64 measures; all other columns become dimensions. The header row is
// required. hierarchies may be nil and attached later.
// Rows stream into the dictionary-coded columns, so resident memory is
// bounded by the encoded output, not the input text.
func ReadCSV(r io.Reader, name string, measureNames []string, hierarchies []Hierarchy) (*Dataset, error) {
	cr, err := NewCSVReader(r, "CSV")
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	header := cr.Header
	isMeasure := make([]bool, len(header))
	for _, m := range measureNames {
		col := slices.Index(header, m)
		if col < 0 {
			return nil, fmt.Errorf("data: measure column %q not in CSV header", m)
		}
		isMeasure[col] = true
	}
	var dimNames, msNames []string
	for col, c := range header {
		if isMeasure[col] {
			msNames = append(msNames, c)
		} else {
			dimNames = append(dimNames, c)
		}
	}
	d := New(name, dimNames, msNames, hierarchies)
	// By header position: the dimension column it feeds (nil for a measure),
	// and a measure's values.
	dimCols, vals := make([]*dimCol, len(header)), make([][]float64, len(header))
	for col, c := range header {
		dimCols[col] = d.dims[c]
	}

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: %w", err)
		}
		for col, e := range dimCols {
			if e != nil {
				code, err := e.Intern(rec[col])
				if err != nil {
					return nil, fmt.Errorf("data: %w", cr.fieldError(col, err))
				}
				e.codes = append(e.codes, code)
				continue
			}
			v, err := cr.Measure(rec, col)
			if err != nil {
				return nil, fmt.Errorf("data: %w", err)
			}
			vals[col] = append(vals[col], v)
		}
		d.n++
	}
	for col, c := range header {
		if isMeasure[col] {
			d.measures[c] = vals[col]
		}
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
