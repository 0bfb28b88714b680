// Fixture: resource constructors must close or hand off their results.
package files

import (
	"os"

	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/wal"
)

type holder struct{ f *os.File }

// LeakFile never closes the handle and never lets it escape. want: finding.
func LeakFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	f.Name()
	return nil
}

// LeakLog drops the recovered log on the floor. want: finding.
func LeakLog(path string) error {
	log, batches, err := wal.Open(path)
	if err != nil {
		return err
	}
	_ = batches
	_ = log
	return nil
}

// DeferClose is the canonical shape. No finding.
func DeferClose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}

// Handoff moves ownership into the struct. No finding.
func Handoff(path string) (*holder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

// Passed hands the file to a callee. No finding.
func Passed(path string, sink func(*os.File)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sink(f)
	return nil
}

// LeakDataset recovers a dataset — an open log — and drops it. want: finding.
func LeakDataset(dir string, base *shard.Set) error {
	ds, err := ingest.Recover(dir, "demo", base, ingest.Options{})
	if err != nil {
		return err
	}
	_ = ds
	return nil
}
