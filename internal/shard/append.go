package shard

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/store"
)

// Append routes each row to its owning shard and returns the successor Set
// at Version+1, leaving the receiver untouched (callers that fail mid-swap
// keep serving the old Set unchanged). The batch is validated and encoded
// once (store.EncodeBatch): dictionary growth happens in batch row order and
// the grown dictionaries are shared by every shard of the successor;
// untouched shards share their code and measure slices with the predecessor,
// touched shards merge a delta cube built over just their appended rows, and
// every cube is re-keyed to the grown dictionaries (store.Batch.Extend). A batch that violates a hierarchy functional
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
// Set (data.ValidateShards). Per-shard validation (Batch.Extend) sees only one
// shard's rows, so a violation whose two witnesses land on different shards —
// the child value lives in one shard, its conflicting re-parenting in another
// — slips through it; dictionaries are shared, so the cross-shard check runs
// over global codes without touching a string.
func (s *Set) validateFDs() error {
	ds := make([]*data.Dataset, len(s.Snaps))
	for i, sn := range s.Snaps {
		var err error
		if ds[i], err = sn.Dataset(); err != nil {
			return err
		}
	}
	if err := data.ValidateShards(ds); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}
