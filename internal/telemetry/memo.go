package telemetry

import "sync"

// maxMemoBodyBytes bounds one memoised request body: a dense-grid batch
// body is tens of kilobytes, so anything larger is an outlier not worth
// the memory of remembering verbatim.
const maxMemoBodyBytes = 64 << 10

// bodyMemo remembers, per exact request body, the canonical cache key
// (and the access-log annotations) that body decoded to the first time
// it was seen. Sweep clients replay byte-identical bodies — the same
// generator, dashboard or poller re-asks the same grid — and on the
// cache-hit path the JSON decode, validation and canonicalisation spent
// recomputing a key we already know dominate the serving cost. The memo
// turns an exact repeat into one map probe.
//
// The mapping body → key is pure (it depends only on the bytes and the
// static system/workload catalogues), so entries never go stale; only
// successfully validated bodies are remembered, and the memo never
// serves a response itself — it only names the response-cache entry to
// probe, so an expired or evicted answer falls through to the full
// decode-and-compute path.
type bodyMemo struct {
	capacity int

	mu      sync.Mutex
	entries map[string]memoEntry // key: the verbatim request body
}

// memoEntry is what handleBatch needs to skip the decode: the semantic
// cache key plus the fields it would have annotated onto the log line.
type memoEntry struct {
	key    string // canonical response-cache key
	class  string // resolved workload class
	tuples int    // tuples as sent
	unique int    // tuples after canonicalisation
}

func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{capacity: capacity, entries: map[string]memoEntry{}}
}

// get returns the memoised entry for an exact body, if any. The
// map[string] probe with a []byte key does not allocate.
func (m *bodyMemo) get(body []byte) (memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.entries[string(body)]
	m.mu.Unlock()
	return e, ok
}

// put remembers a validated body. At capacity one arbitrary entry is
// evicted to make room — entries are cheap to rebuild (one decode), so
// the memo skips LRU bookkeeping, but it must never forget the whole
// working set at once: the old wholesale clear dropped every other hot
// body the moment one new body arrived at capacity, turning a steady
// mixed workload back into full decodes on the exact requests the memo
// existed to accelerate.
func (m *bodyMemo) put(body []byte, e memoEntry) {
	if len(body) > maxMemoBodyBytes {
		return
	}
	m.mu.Lock()
	if _, ok := m.entries[string(body)]; !ok && len(m.entries) >= m.capacity {
		for k := range m.entries {
			delete(m.entries, k)
			break
		}
	}
	m.entries[string(body)] = e
	m.mu.Unlock()
}
