package shard

import (
	"fmt"

	"repro/internal/store"
)

// Append routes each row to its owning shard and returns the successor Set
// at Version+1, leaving the receiver untouched (callers that fail mid-swap
// keep serving the old Set unchanged). The batch is validated and encoded
// once (store.EncodeBatch): dictionary growth happens in batch row order and
// the grown dictionaries are shared by every shard of the successor;
// untouched shards share their code and measure slices with the predecessor
// and keep their cubes, touched shards merge a delta cube built over just
// their appended rows. A batch that violates a hierarchy functional
// dependency — within one shard or across shards — is rejected whole.
func (s *Set) Append(rows []store.Row) (*Set, error) {
	if len(rows) == 0 {
		return s, nil
	}
	first := s.Snaps[0]
	batch, err := store.EncodeBatch(first, rows)
	if err != nil {
		return nil, err
	}
	n := len(s.Snaps)
	next := &Set{Key: s.Key, Snaps: make([]*store.Snapshot, n)}
	if n == 1 {
		// One shard owns every row, and its own validation already covers
		// every functional dependency: no routing, no cross-shard check.
		if next.Snaps[0], err = batch.Extend(first); err != nil {
			return nil, err
		}
		return next, nil
	}
	keyIdx := -1
	for i, c := range first.Dims {
		if c.Name == s.Key {
			keyIdx = i
			break
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("shard: partition key %q is not a dimension of %q", s.Key, first.Name)
	}
	perShard := make([][]int, n)
	for ri, r := range rows {
		si := Owner(r.Dims[keyIdx], n)
		perShard[si] = append(perShard[si], ri)
	}
	for si, base := range s.Snaps {
		if next.Snaps[si], err = batch.Pick(perShard[si]).Extend(base); err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", si, err)
		}
	}
	if err := next.validateFDs(); err != nil {
		return nil, err
	}
	return next, nil
}

// validateFDs checks every hierarchy functional dependency across the whole
// Set. Per-shard validation (Batch.Extend) sees only one shard's rows,
// so a violation whose two witnesses land on different shards — the child
// value lives in one shard, its conflicting re-parenting in another — slips
// through it; dictionaries are shared, so the cross-shard check runs over
// global codes without touching a string.
func (s *Set) validateFDs() error {
	first := s.Snaps[0]
	dimIdx := make(map[string]int, len(first.Dims))
	for i, c := range first.Dims {
		dimIdx[c.Name] = i
	}
	for _, h := range first.Hierarchies {
		for lvl := 1; lvl < len(h.Attrs); lvl++ {
			child, parent := h.Attrs[lvl], h.Attrs[lvl-1]
			ci, ok := dimIdx[child]
			if !ok {
				return fmt.Errorf("shard: hierarchy %q references unknown attribute %q", h.Name, child)
			}
			pi, ok := dimIdx[parent]
			if !ok {
				return fmt.Errorf("shard: hierarchy %q references unknown attribute %q", h.Name, parent)
			}
			const unset = -1
			parentOf := make([]int64, len(first.Dims[ci].Dict))
			for i := range parentOf {
				parentOf[i] = unset
			}
			for _, sn := range s.Snaps {
				cc, pc := sn.Dims[ci].Codes, sn.Dims[pi].Codes
				for row := range cc {
					c, p := cc[row], int64(pc[row])
					if prev := parentOf[c]; prev == unset {
						parentOf[c] = p
					} else if prev != p {
						return fmt.Errorf("shard: hierarchy %q: FD violation across shards: %s=%q maps to %s=%q and %q",
							h.Name, child, sn.Dims[ci].Dict[c], parent, sn.Dims[pi].Dict[prev], sn.Dims[pi].Dict[p])
					}
				}
			}
		}
	}
	return nil
}
