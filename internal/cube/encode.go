package cube

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/data"
)

// Decode rebuilds a cube from its wire payload against the dataset of the
// snapshot the payload was stored with.
func Decode(payload []byte, ds *data.Dataset) (*Cube, error) {
	c, err := skeleton(ds)
	if err != nil {
		return nil, err
	}
	if err := c.decodeInto(payload); err != nil {
		return nil, err
	}
	return c, nil
}

// The cube wire payload (internal/store wraps it in a tagged, versioned,
// checksummed .rst section). Levels appear in lattice order, so depth
// vectors are implicit; radices and dictionaries come from the enclosing
// snapshot, so a cube payload is only meaningful next to the columns it
// summarizes.
//
//	rows      uvarint  must match the snapshot row count
//	#measures uvarint  must match the snapshot measure count
//	#levels   uvarint  must match the schema's lattice size
//	per level:
//	  #cells  uvarint
//	  keys    uvarint × #cells  first absolute, then strictly positive deltas
//	  counts  uvarint × #cells  cell row counts (always integral)
//	  per measure: #cells × 8 bytes sum, then #cells × 8 bytes sum of squares
//	               (little-endian float64 bits)

// maxSaneCount bounds decoded element counts so a corrupt payload cannot
// trigger a huge allocation before length checks run.
const maxSaneCount = 1 << 31

// AppendBinary serializes the cube payload onto dst and returns it.
func (c *Cube) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.rows))
	dst = binary.AppendUvarint(dst, uint64(len(c.measures)))
	dst = binary.AppendUvarint(dst, uint64(len(c.levels)))
	for _, lv := range c.levels {
		dst = binary.AppendUvarint(dst, uint64(len(lv.keys)))
		prev := uint64(0)
		for ci, k := range lv.keys {
			if ci == 0 {
				dst = binary.AppendUvarint(dst, k)
			} else {
				dst = binary.AppendUvarint(dst, k-prev)
			}
			prev = k
		}
		for _, cnt := range lv.counts {
			dst = binary.AppendUvarint(dst, uint64(cnt))
		}
		for mi := range c.measures {
			for _, v := range lv.sums[mi] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
			for _, v := range lv.sumsqs[mi] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
	}
	return dst
}

// decodeInto fills a skeleton cube from a wire payload. It validates
// structure (key order and range, count integrity, row coverage) and fails
// cleanly on truncated or corrupt payloads.
func (c *Cube) decodeInto(payload []byte) error {
	d := &decoder{b: payload}
	if rows := d.uvarint(); d.err == nil && rows != uint64(c.rows) {
		return fmt.Errorf("cube: payload covers %d rows, snapshot has %d", rows, c.rows)
	}
	if nm := d.count(); d.err == nil && nm != len(c.measures) {
		return fmt.Errorf("cube: payload has %d measures, snapshot has %d", nm, len(c.measures))
	}
	if nl := d.count(); d.err == nil && nl != len(c.levels) {
		return fmt.Errorf("cube: payload has %d levels, schema lattice has %d", nl, len(c.levels))
	}
	for _, lv := range c.levels {
		if d.err != nil {
			break
		}
		ncells := d.count()
		lv.keys = make([]uint64, 0, min(ncells, 1<<16))
		prev := uint64(0)
		for ci := 0; ci < ncells && d.err == nil; ci++ {
			v := d.uvarint()
			if ci > 0 {
				if v == 0 {
					return fmt.Errorf("cube: keys not strictly ascending")
				}
				if v > math.MaxUint64-prev {
					return fmt.Errorf("cube: key delta overflows uint64")
				}
				v += prev
			}
			prev = v
			lv.keys = append(lv.keys, v)
		}
		lv.counts = make([]float64, 0, len(lv.keys))
		for ci := 0; ci < ncells && d.err == nil; ci++ {
			lv.counts = append(lv.counts, float64(d.uvarint()))
		}
		for mi := range c.measures {
			lv.sums[mi] = d.floats(ncells)
			lv.sumsqs[mi] = d.floats(ncells)
		}
	}
	if d.err != nil {
		return fmt.Errorf("cube: decoding payload: %w", d.err)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("cube: %d trailing bytes after payload", len(d.b)-d.off)
	}
	return c.validate()
}

// decoder reads the primitive payload types, latching the first error.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) count() int {
	v := d.uvarint()
	if v > maxSaneCount {
		d.fail("implausible element count %d", v)
		return 0
	}
	return int(v)
}

func (d *decoder) floats(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if d.off+8*n > len(d.b) {
		d.fail("truncated: need %d bytes at offset %d, have %d", 8*n, d.off, len(d.b)-d.off)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off+8*i:]))
	}
	d.off += 8 * n
	return out
}
