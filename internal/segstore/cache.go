// The store's segment cache: one entry per committed segment, holding
// the parsed footer (pruning and reads share it) and each chunk
// dictionary decoded on first use. Segments are immutable, so nothing
// cached ever goes stale while the manifest names its segment; Compact
// drops the entries of the segments it retires, and an entry is created
// only for a path the manifest names at that moment.
//
// Decoded dictionaries are bounded per store by dictCacheBytes with LRU
// eviction. A failed decode is never cached, so a corrupt dictionary
// fails every read. Cached values are never handed out: decodeDictRef
// copies byte cells into the rows it fills, and every other kind is
// immutable, so no read aliases the cache.
package segstore

import (
	"container/list"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// dictCacheBytes bounds the decoded dictionaries one Store keeps: every
// dictionary of fleet-syn's 78 reduced segments fits many times over.
const dictCacheBytes = 64 << 20

// segEntry is the cache entry of one segment.
type segEntry struct {
	foot *footer
	lru  *dictLRU

	// Guarded by lru.mu. dicts maps a footer column index to its cached
	// dictionary; dropped marks an entry that caches nothing: retired by
	// Compact, or built for a path the manifest no longer named.
	dicts   map[int]*list.Element
	dropped bool
}

// dictItem is one cached dictionary.
type dictItem struct {
	seg  *segEntry
	col  int
	dict []relation.Value
	size int64
}

// dictLRU holds one store's decoded dictionaries, least recently used
// evicted first once they total more than budget bytes.
type dictLRU struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  list.List // of *dictItem, most recently used at the front
}

// get returns column col's cached dictionary, or nil.
func (c *dictLRU) get(e *segEntry, col int) []relation.Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := e.dicts[col]
	if el == nil {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*dictItem).dict
}

// put caches column col's dictionary, then evicts down to the budget
// (the new dictionary too, when it alone is over it). A dropped entry
// caches nothing.
func (c *dictLRU) put(e *segEntry, col int, dict []relation.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.dropped || e.dicts[col] != nil {
		return
	}
	if e.dicts == nil {
		e.dicts = map[int]*list.Element{}
	}
	it := &dictItem{seg: e, col: col, dict: dict, size: dictSize(dict)}
	e.dicts[col] = c.order.PushFront(it)
	c.used += it.size
	for c.used > c.budget {
		c.remove(c.order.Back())
		mDictEvictions.Inc()
	}
}

// drop removes e's dictionaries and marks it dropped.
func (c *dictLRU) drop(e *segEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.dropped = true
	for _, el := range e.dicts {
		c.remove(el)
	}
}

func (c *dictLRU) remove(el *list.Element) {
	it := c.order.Remove(el).(*dictItem)
	delete(it.seg.dicts, it.col)
	c.used -= it.size
}

// dictSize is a dictionary's decoded footprint in bytes.
func dictSize(dict []relation.Value) int64 {
	n := int64(len(dict)) * int64(unsafe.Sizeof(relation.Value{}))
	for _, v := range dict {
		n += int64(len(v.S) + len(v.B))
	}
	return n
}

// entry returns path's cache entry, reading and parsing its footer on
// first use. When the manifest does not name path (a scan of a snapshot
// a compaction has since retired), the entry returned is not kept and
// caches nothing.
func (st *Store) entry(path string) (*segEntry, error) {
	st.mu.Lock()
	e := st.cache[path]
	st.mu.Unlock()
	if e != nil {
		return e, nil
	}
	g, _, err := openSegmentFile(path)
	if err != nil {
		return nil, err
	}
	g.Close() // footer parsed; chunks are read per scan
	foot := g.foot
	if DebugZoneMutate != nil {
		for i := range foot.cols {
			DebugZoneMutate(foot.cols[i].name, -1, len(foot.pages), &foot.cols[i].zone)
			for p := range foot.pages {
				DebugZoneMutate(foot.cols[i].name, p, len(foot.pages), &foot.pages[p].cols[i].zone)
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.cache[path]; e != nil {
		return e, nil // another reader loaded it first
	}
	e = &segEntry{foot: foot, lru: &st.dicts}
	if st.namedLocked(path) {
		st.cache[path] = e
	} else {
		e.dropped = true
	}
	return e, nil
}

// namedLocked reports whether the manifest names the segment at path.
func (st *Store) namedLocked(path string) bool {
	for _, s := range st.segs {
		if filepath.Join(st.dir, s.Name) == path {
			return true
		}
	}
	return false
}

// dropEntryLocked forgets path's cache entry and its dictionaries.
func (st *Store) dropEntryLocked(path string) {
	if e := st.cache[path]; e != nil {
		delete(st.cache, path)
		st.dicts.drop(e)
	}
}

// CachedSegments returns the segment paths that hold a cache entry,
// sorted. Every one is named by the manifest; tests use it to check
// that Compact invalidates what it retires.
func (st *Store) CachedSegments() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	paths := make([]string, 0, len(st.cache))
	for p := range st.cache {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// readSegment decodes ref's columns over its page ranges through the
// segment's cache entry: one open of the file, then only the selected
// pages' bytes and the dictionaries not yet cached.
func (st *Store) readSegment(ref engine.SegmentRef) (relation.Schema, []relation.Row, error) {
	e, err := st.entry(ref.Path)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	f, err := os.Open(ref.Path)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	defer f.Close()
	g := &Segment{path: ref.Path, r: f, foot: e.foot, entry: e}
	return g.ReadRanges(ref.Cols, ref.Ranges)
}
