package serve

import (
	"container/list"
	"strconv"
	"sync"

	"lrm/internal/core"
	"lrm/internal/obs"
)

// Cache metrics, hoisted once per the obs contract.
var (
	obsCacheHits      = obs.GetCounter("serve.cache.hits")
	obsCacheMisses    = obs.GetCounter("serve.cache.misses")
	obsCacheEvictions = obs.GetCounter("serve.cache.evictions")
	obsCacheBytes     = obs.GetGauge("serve.cache.bytes")
)

// cacheKey derives a content address for an archive without decoding it.
// Chunked containers are keyed by their dims plus index-seeded per-chunk
// CRCs recomputed over the payload bytes (core.ChunkCRCs), so any payload
// corruption, chunk reorder, or splice changes the key — the stored CRC
// fields are deliberately not trusted, or a payload flip would collide
// with the clean archive's key and serve its cached field. Single-shot
// LRM1 archives fall back to hashing the whole archive. chunks is the
// container's chunk count (0 for LRM1), which a degraded-mode hit reports
// as the decode would have.
func cacheKey(archive []byte) (key string, chunks int, ok bool) {
	if dims, crcs, ok := core.ChunkCRCs(archive); ok {
		h := fnvOffset64
		for _, d := range dims {
			h = fnvMixUint32(h, uint32(d))
		}
		for _, c := range crcs {
			h = fnvMixUint32(h, c)
		}
		return "c|" + strconv.FormatUint(h, 16), len(crcs), true
	}
	if len(archive) == 0 {
		return "", 0, false
	}
	h := fnvOffset64
	for _, b := range archive {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return "s|" + strconv.FormatUint(h, 16), 0, true
}

// FNV-1a, inlined: the key derivation only needs a stable 64-bit mix, and
// the closed-form loop avoids hash.Hash's io.Writer error surface.
const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

func fnvMixUint32(h uint64, v uint32) uint64 {
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint64(byte(v>>shift))) * fnvPrime64
	}
	return h
}

// respCache is a byte-bounded LRU of decompressed fields. Values are the
// raw little-endian response payloads (grid.Field.Bytes output) plus their
// dims, stored by content-address key; eviction walks from the cold end
// until the new entry fits.
type respCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	order    *list.List // front = hottest; values are *cacheEntry
	entries  map[string]*list.Element
}

type cacheEntry struct {
	key     string
	dims    []int
	payload []byte
}

func newRespCache(maxBytes int64) *respCache {
	return &respCache{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached entry for key, promoting it to hottest. The
// payload is shared, not copied — callers only ever write it to responses.
func (c *respCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		obsCacheMisses.Inc()
		return nil, false
	}
	obsCacheHits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts payload under key, evicting cold entries until it fits.
// Entries larger than the whole budget are skipped rather than flushing
// everything for a value that cannot stay resident anyway.
func (c *respCache) put(key string, dims []int, payload []byte) {
	size := int64(len(payload))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Same content address, same payload: just refresh recency.
		c.order.MoveToFront(el)
		return
	}
	for c.curBytes+size > c.maxBytes {
		cold := c.order.Back()
		if cold == nil {
			break
		}
		e := cold.Value.(*cacheEntry)
		c.order.Remove(cold)
		delete(c.entries, e.key)
		c.curBytes -= int64(len(e.payload))
		obsCacheEvictions.Inc()
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, dims: dims, payload: payload})
	c.curBytes += size
	obsCacheBytes.Set(c.curBytes)
}
