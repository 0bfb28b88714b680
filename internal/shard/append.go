package shard

import (
	"fmt"

	"repro/internal/store"
)

// Append routes each row to its owning shard and returns the successor Set
// at Version+1, leaving the receiver untouched (callers that fail mid-swap
// keep serving the old Set unchanged). The batch is validated and encoded
// once (store.EncodeBatch): dictionary growth happens in batch row order and
// the grown dictionaries are shared by every shard of the successor. The
// shards then grow together (store.ExtendShards): untouched shards share
// their code and measure slices with the predecessor, touched shards grow
// theirs and merge a delta cube built over just their appended rows, and
// every cube is re-keyed to the grown dictionaries. Every hierarchy
// functional dependency is checked once, across all shards: the batch's rows
// against the one FD table the shards share over the union of their rows (or
// every row, where they share none), so a batch that violates one — within
// one shard or across shards — is rejected whole.
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
	parts := []*store.Batch{batch}
	if n > 1 {
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
		parts = make([]*store.Batch, n)
		for si := range parts {
			parts[si] = batch.Pick(perShard[si])
		}
	}
	snaps, err := store.ExtendShards(s.Snaps, parts)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Set{Key: s.Key, Snaps: snaps}, nil
}
