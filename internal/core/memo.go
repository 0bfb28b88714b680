package core

import (
	"maps"
	"strings"
	"sync"
)

// An Engine's dataset is immutable, so what depends only on it — a
// hierarchy's factor source, a drilled group-by, a factorizer, a fitted model
// — is built once per engine and shared by every session. memo is the one
// table those values live in. There is no invalidation: a new dataset version
// gets a new engine, and the old table is garbage with it.
//
// A fitted model is keyed by (γ's attributes, measure, statistic); the
// engine's options are fixed. Its price is 0 groups: its predictions and row
// index take about 12 B per group, less than the codes and stats its γ is
// already charged for, so a fit never causes an eviction. It lives and dies
// with its γ: publish keeps it only while γ is kept, an eviction of γ takes
// its fits along, and a fit whose γ is not kept is served and not retained.
//
// Read-only contract: a value is published to every concurrent and later
// caller, so nothing may write to a memoised *agg.Result, *factor.Source,
// *factor.Factorizer or *statModel after its build returns. A memoised
// group-by is the coded relation; a reader that needs strings decodes one
// group (Result.Group) or takes a decoded view, which is a new Result
// (Result.Decode). A factor source is a hierarchy's group-by kept in codes: it
// shares that Result's dictionaries, and its chains share its levels. Per-call
// results (rankings, prediction maps) are assembled in fresh slices and maps.
//
// Budget: the table retains at most memoBudget groups (every kind of value
// has a size in groups). When publishing an entry would exceed the budget,
// the least recently used entries are evicted until it fits: every get stamps
// its entry, a γ leaves with its fits, and factor sources, which every drill
// state reuses, go only when nothing else is left. An entry larger than the
// budget by itself is returned to its callers but never retained.
//
// A build that panics or fails leaves no entry behind, so the next caller
// builds again instead of inheriting a spent sync.Once.

// memoBudget is sized from the benchmark's serve_interactive workload: its
// largest group-by has 27,646 groups, so every entry fits, and the 5,122
// groups left beside it hold the root state's γs for both measures (4,224)
// and the factor sources (540). Retaining the whole walk (≈ 126k groups, a
// budget of 1 << 17) measured +12 MB (+16 %) mean heap and ×4–5 throughput
// on 2 CPUs.
const memoBudget = 1 << 15

type memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	used    int // groups retained by kept entries
	budget  int
	clock   uint64 // advanced by every get; an entry's last is its latest

	hits, builds map[string]uint64 // by kind
	evictions    uint64
}

type memoEntry struct {
	once sync.Once
	done bool // build returned (did not panic)
	val  any
	err  error

	// Guarded by memo.mu.
	kind string // the key's first word: source, groups, factorizer or fit
	kept bool   // published within the budget, charged size groups
	size int
	last uint64
	deps []string // keys kept only while this entry is: a γ's fits
}

func newMemo() *memo {
	return &memo{entries: map[string]*memoEntry{}, budget: memoBudget,
		hits: map[string]uint64{}, builds: map[string]uint64{}}
}

// memoGet returns the value stored under key, running build (outside the
// table's lock) if no caller has yet. Concurrent callers of one key share a
// single build. size reports a built value's size in groups; it runs under
// the table's lock, so it may read m.entries.
func memoGet[T any](m *memo, key string, build func() (T, error), size func(T) int) (T, error) {
	for {
		m.mu.Lock()
		ent, ok := m.entries[key]
		if ok {
			m.hits[ent.kind]++
		} else {
			kind, _, _ := strings.Cut(key, " ")
			ent = &memoEntry{kind: kind}
			m.entries[key] = ent
		}
		m.clock++
		ent.last = m.clock
		m.mu.Unlock()
		ent.once.Do(func() {
			var val T
			// Deferred so that it also runs while a panicking build unwinds.
			defer func() { m.publish(key, ent, func() int { return size(val) }) }()
			val, ent.err = build()
			ent.val, ent.done = val, true
		})
		if ent.done {
			val, _ := ent.val.(T)
			return val, ent.err
		}
		// The goroutine that ran build panicked (and re-raised there); this
		// one was waiting on the same entry, which is gone now. Build again.
	}
}

// publish retains a finished build against the budget, evicting the least
// recently used entries to make room; a build that panicked, failed, or is
// too large to keep is left out of the table.
func (m *memo) publish(key string, ent *memoEntry, sizeOf func() int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.builds[ent.kind]++
	delete(m.entries, key)
	if !ent.done || ent.err != nil {
		return
	}
	size := sizeOf()
	if size > m.budget {
		return
	}
	for m.used+size > m.budget {
		m.evict(m.victim())
	}
	m.entries[key] = ent
	ent.kept, ent.size = true, size
	m.used += size
}

// victim returns the key of the least recently used kept entry that frees
// groups, a factor source only when no other is left. It is called only while
// the kept entries' groups exceed what a publication may use, so one exists.
func (m *memo) victim() string {
	var key string
	var v *memoEntry
	for k, e := range m.entries {
		if !e.kept || e.size == 0 {
			continue
		}
		if v == nil || evictsBefore(e, v) {
			key, v = k, e
		}
	}
	return key
}

func evictsBefore(a, b *memoEntry) bool {
	if as, bs := a.kind == "source", b.kind == "source"; as != bs {
		return bs
	}
	return a.last < b.last
}

// evict drops a kept entry and the entries kept only while it is.
func (m *memo) evict(key string) {
	ent := m.entries[key]
	for _, k := range append(ent.deps, key) {
		delete(m.entries, k)
		m.evictions++
	}
	m.used -= ent.size
}

// retainWith is the size function of a value kept only while owner is (it
// runs under the table's lock): 0 groups while owner is kept, recording key
// to leave with it, and otherwise more than the budget, so the value is
// served and not retained.
func (m *memo) retainWith(key, owner string) int {
	if o, ok := m.entries[owner]; ok && o.kept {
		o.deps = append(o.deps, key)
		return 0
	}
	return m.budget + 1
}

// published reports whether key holds a kept entry, whose get builds nothing.
func (m *memo) published(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return ok && e.kept
}

// MemoStats counts an engine's memo since the engine was built.
type MemoStats struct {
	// Hits and Builds count, per kind of value ("source", "groups",
	// "factorizer", "fit"), the gets the table answered (a build in flight
	// included) and the builds run.
	Hits, Builds map[string]uint64
	// Evictions counts entries evicted to make room, a γ's fits included.
	Evictions uint64
	// RetainedGroups is what the table holds now, against memoBudget.
	RetainedGroups int
}

// MemoStats snapshots the engine's memo counters.
func (e *Engine) MemoStats() MemoStats {
	m := e.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: maps.Clone(m.hits), Builds: maps.Clone(m.builds), Evictions: m.evictions, RetainedGroups: m.used}
}
