package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/shard"
	"repro/internal/store"
)

// inputs is what a run hands to the program under test: the generated
// dataset and the files derived from it, all inside the run's scratch
// directory. Nothing here carries the seed or the workload name.
type inputs struct {
	g   *genData
	dir string
}

// name is what the dataset is registered or opened as.
func (in *inputs) name() string { return in.g.shape.name }

func (in *inputs) csvPath() string      { return filepath.Join(in.dir, in.name()+".csv") }
func (in *inputs) plainRSTPath() string { return filepath.Join(in.dir, in.name()+".rst") }
func (in *inputs) cubeRSTPath() string  { return filepath.Join(in.dir, in.name()+".cube.rst") }
func (in *inputs) shardedRSTPath() string {
	return filepath.Join(in.dir, in.name()+".sharded.rst")
}

// writeCSV writes the base rows as CSV.
func (in *inputs) writeCSV() error {
	return os.WriteFile(in.csvPath(), in.g.csv(in.g.base), 0o644)
}

// snapshot dictionary-encodes the base rows (no cube).
func (in *inputs) snapshot() *store.Snapshot {
	return store.FromDataset(in.g.dataset(in.name(), in.g.base))
}

// writeRSTForms converts the CSV on disk into the three on-disk forms the
// cold-session workload opens: a plain snapshot, one with a stored rollup
// cube, and a 2-shard partitioned one. It is `reptile convert`'s work, so
// it reads the CSV rather than reusing generator state.
func (in *inputs) writeRSTForms() error {
	snap, err := in.csvSnapshot()
	if err != nil {
		return err
	}
	if err := snap.WriteFile(in.plainRSTPath()); err != nil {
		return fmt.Errorf("writing plain snapshot: %w", err)
	}
	set, err := shard.Partition(snap, 2, "")
	if err != nil {
		return fmt.Errorf("partitioning: %w", err)
	}
	if err := set.WriteFile(in.shardedRSTPath()); err != nil {
		return fmt.Errorf("writing partitioned snapshot: %w", err)
	}
	if err := snap.BuildCube(); err != nil {
		return fmt.Errorf("building cube: %w", err)
	}
	if err := snap.WriteFile(in.cubeRSTPath()); err != nil {
		return fmt.Errorf("writing cube snapshot: %w", err)
	}
	return nil
}

// csvSnapshot parses the CSV on disk and dictionary-encodes it.
func (in *inputs) csvSnapshot() (*store.Snapshot, error) {
	ds, err := data.ReadCSVFile(in.csvPath(), in.name(), measureNames, hierarchies())
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", in.csvPath(), err)
	}
	return store.FromDataset(ds), nil
}

// ensureFiles writes whichever of the CSV and the three .rst forms the
// workload's own set-up has not already written; the layer pass reads all
// four.
func (in *inputs) ensureFiles() error {
	if _, err := os.Stat(in.csvPath()); err != nil {
		if err := in.writeCSV(); err != nil {
			return err
		}
	}
	for _, p := range []string{in.plainRSTPath(), in.cubeRSTPath(), in.shardedRSTPath()} {
		if _, err := os.Stat(p); err != nil {
			return in.writeRSTForms()
		}
	}
	return nil
}
