package cube

import (
	"encoding/binary"
	"math"
)

// EncodeV1 lays c's cell tables out in the varint layout of version-1 .rst
// cube sections, the bytes TestGoldenCubes digests:
//
//	rows uv | #measures uv | #levels uv
//	per level: #cells uv | keys uv × #cells (first absolute, then deltas)
//	           counts uv × #cells
//	           per measure: #cells × u64 sum bits, then #cells × u64 sum-of-squares bits
func EncodeV1(c *Cube) []byte {
	dst := binary.AppendUvarint(nil, uint64(c.rows))
	dst = binary.AppendUvarint(dst, uint64(len(c.measures)))
	dst = binary.AppendUvarint(dst, uint64(len(c.levels)))
	for _, lv := range c.levels {
		dst = binary.AppendUvarint(dst, uint64(len(lv.keys)))
		prev := uint64(0)
		for _, k := range lv.keys {
			dst = binary.AppendUvarint(dst, k-prev)
			prev = k
		}
		for _, cnt := range lv.counts {
			dst = binary.AppendUvarint(dst, uint64(cnt))
		}
		for mi := range c.measures {
			for _, col := range [][]float64{lv.sums[mi], lv.sumsqs[mi]} {
				for _, v := range col {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
				}
			}
		}
	}
	return dst
}
