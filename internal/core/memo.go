package core

import "sync"

// An Engine's dataset is immutable, so what depends only on it — a
// hierarchy's factor source, a drilled group-by, a factorizer — is built once
// per engine and shared by every session. memo is the one table those values
// live in. There is no invalidation: a new dataset version gets a new engine,
// and the old table is garbage with it.
//
// Fitted models are functions of the dataset too, but are not kept here yet:
// retaining them turns most interactive recommends into look-ups, a change of
// scale that has to land as a measured performance change of its own.
//
// Read-only contract: a value is published to every concurrent and later
// caller, so nothing may write to a memoised *agg.Result, *factor.Source or
// *factor.Factorizer after its build returns. Per-call results (models,
// rankings, prediction maps) are assembled in fresh slices and maps.
//
// Budget: the table retains at most memoBudget groups (every kind of value
// has a size in groups). When publishing an entry would exceed the budget the
// whole table is dropped first — one rule, no recency bookkeeping — and an
// entry larger than the budget by itself is returned to its callers but never
// retained.
//
// A build that panics or fails leaves no entry behind, so the next caller
// builds again instead of inheriting a spent sync.Once.

// memoBudget is sized from the benchmark's serve_interactive workload: the
// largest group-by its drill walks reach has 27,648 groups, so every entry
// fits, and the table holds about one deep drill state at a time — what a
// session kept until its next Drill. Retaining all ≈126k groups that workload
// visits measured ≈58 MB more mean heap (171 MB against 113 MB) and no more
// throughput.
const memoBudget = 1 << 15

type memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	used    int // groups retained by published entries
	budget  int
}

type memoEntry struct {
	once sync.Once
	done bool // build returned (did not panic)
	val  any
	err  error
}

func newMemo() *memo {
	return &memo{entries: map[string]*memoEntry{}, budget: memoBudget}
}

// memoGet returns the value stored under key, running build (outside the
// table's lock) if no caller has yet. Concurrent callers of one key share a
// single build. size reports a built value's size in groups.
func memoGet[T any](m *memo, key string, build func() (T, error), size func(T) int) (T, error) {
	for {
		m.mu.Lock()
		ent, ok := m.entries[key]
		if !ok {
			ent = &memoEntry{}
			m.entries[key] = ent
		}
		m.mu.Unlock()
		ent.once.Do(func() {
			n := 0
			// Deferred so that it also runs while a panicking build unwinds.
			defer func() { m.publish(key, ent, n) }()
			val, err := build()
			if err == nil {
				n = size(val)
			}
			ent.val, ent.err, ent.done = val, err, true
		})
		if ent.done {
			val, _ := ent.val.(T)
			return val, ent.err
		}
		// The goroutine that ran build panicked (and re-raised there); this
		// one was waiting on the same entry, which is gone now. Build again.
	}
}

// publish retains a finished build against the budget; a build that panicked,
// failed, or is too large to keep is left out of the table.
func (m *memo) publish(key string, ent *memoEntry, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.entries[key]; ok && cur != ent {
		return // a reset dropped ent mid-build and another caller took the key
	}
	delete(m.entries, key)
	if !ent.done || ent.err != nil || size > m.budget {
		return
	}
	if m.used+size > m.budget {
		m.entries = map[string]*memoEntry{}
		m.used = 0
	}
	m.entries[key] = ent
	m.used += size
}
