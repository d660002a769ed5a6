package telemetry

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/workload"
)

// maxBatchTuples bounds one /v1/batch request; the body size cap
// (maxBatchBodyBytes) limits the wire form, this limits the work.
const maxBatchTuples = 65536

// maxBatchBodyBytes is the /v1/batch body cap — larger than the 1 MiB
// default because a full dense grid is tens of thousands of tuples.
const maxBatchBodyBytes = 8 << 20

// cfgSlicePool and ptsSlicePool recycle the two per-batch scratch slices
// (the canonical configuration list and its evaluation output) across
// requests, so a steady stream of large batches doesn't allocate two
// multi-thousand-element slices per request.
var (
	cfgSlicePool = sync.Pool{New: func() any { return new([]machine.Config) }}
	ptsSlicePool = sync.Pool{New: func() any { return new([]pareto.Point) }}
)

// batchTuple is one (system, program, n, c, f) coordinate of a /v1/batch
// request. freq_ghz 0 resolves to the system's f_max, exactly as
// /v1/predict defaults it.
type batchTuple struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// batchRequest is the /v1/batch body: many tuples, one class, vectorised
// through the sweep engine. Workers tune how the answer is computed,
// never what it is, so they are excluded from the response cache key.
type batchRequest struct {
	Class   string       `json:"class"`
	Engine  string       `json:"engine"`  // optional; only "sequential"
	Workers int          `json:"workers"` // 0 = server default
	Tuples  []batchTuple `json:"tuples"`
}

// batchResultJSON is one prediction of a batch answer, tagged with its
// model coordinates (a batch may span several (system, program) groups).
type batchResultJSON struct {
	System  string `json:"system"`
	Program string `json:"program"`
	predictionJSON
}

// handleBatch serves POST /v1/batch: validate and canonicalise the tuple
// list (sorted, deduplicated — the response lists results in exactly that
// canonical order), then evaluate it vectorised: tuples grouped by
// (system, program) so each group resolves its model once and runs
// through pareto.EvaluateParallelInto as one contiguous sub-slice of a
// pooled configuration buffer. The whole request holds one admission slot
// (claimed by the cache-flight leader), and identical concurrent requests
// collapse to a single evaluation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tc, _ := traceContextFor(r.Context())
	tDecode := stageStart(tc)
	body, ok := readBodyMax(w, r, maxBatchBodyBytes)
	if !ok {
		return
	}

	// Fast path: an exact-byte repeat of a previously validated body maps
	// straight to its canonical cache key, skipping JSON decode,
	// validation and canonicalisation — the dominant costs of serving a
	// cache hit. Only an already-stored answer is served here; a first
	// sighting, an expired entry or an evicted one falls through to the
	// full path below.
	if s.batchMemo != nil {
		if m, ok := s.batchMemo.get(body); ok {
			if resp, hit := s.respCache.peek(m.key); hit {
				annotate(r.Context(),
					slog.String("class", m.class),
					slog.Int("tuples", m.tuples),
					slog.Int("unique", m.unique))
				s.spans.stage(tc, "cache-lookup", tDecode)
				s.writeCached(w, r, "/v1/batch", resp, cacheHit)
				return
			}
		}
	}

	var req batchRequest
	if !decodeJSONBytes(w, body, &req) {
		return
	}
	s.spans.stage(tc, "decode", tDecode)
	if !validEngine(w, req.Engine) {
		return
	}
	if len(req.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no tuples")
		return
	}
	if len(req.Tuples) > maxBatchTuples {
		httpError(w, http.StatusBadRequest, "batch carries %d tuples, limit %d", len(req.Tuples), maxBatchTuples)
		return
	}
	class := req.Class
	if class == "" {
		class = string(workload.ClassA)
	}

	// Validate every tuple in request order (errors name the offending
	// index), resolving names and the freq_ghz=0 default; iteration
	// counts are resolved per program up front so a bad class fails
	// before any evaluation.
	profs := map[string]*machine.Profile{}
	iters := map[string]int{}
	canon := make([]canonTuple, len(req.Tuples))
	for i, t := range req.Tuples {
		prof, ok := profs[t.System]
		if !ok {
			var err error
			if prof, err = machine.ByName(t.System); err != nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown system %q", i, t.System)
				return
			}
			profs[t.System] = prof
		}
		if _, ok := iters[t.Program]; !ok {
			spec, err := workload.ByName(t.Program)
			if err != nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown program %q", i, t.Program)
				return
			}
			S, err := spec.Iterations(workload.Class(class))
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
				return
			}
			iters[t.Program] = S
		}
		cfg := machine.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: t.FreqGHz * 1e9}
		if t.FreqGHz == 0 {
			cfg.Freq = prof.FMax()
		}
		if err := prof.ValidateModelConfig(cfg); err != nil {
			httpError(w, http.StatusBadRequest, "tuple %d: invalid configuration: %v", i, err)
			return
		}
		canon[i] = canonTuple{system: t.System, program: t.Program, cfg: cfg}
	}
	canon = canonicalizeTuples(canon)

	// A batch whose every tuple is owned by one remote replica forwards
	// whole (before the memo stores this body, so forwarded bodies never
	// enter the local fast path); mixed-ownership batches are served
	// locally — splitting them across owners is the gateway's job.
	if owner, ok := s.batchRemoteOwner(r, canon); ok && s.forward(w, r, body, owner) {
		return
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers > 4*runtime.GOMAXPROCS(0) {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	annotate(r.Context(),
		slog.String("class", class),
		slog.Int("tuples", len(req.Tuples)),
		slog.Int("unique", len(canon)))

	key := batchCacheKey(class, canon)
	if s.batchMemo != nil {
		s.batchMemo.put(body, memoEntry{
			key:    key,
			class:  class,
			tuples: len(req.Tuples),
			unique: len(canon),
		})
	}
	s.respondCached(w, r, "/v1/batch", key, func() (*cachedResponse, error) {
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("batch: %w", errSaturated)
		}
		defer release()
		t0 := time.Now()
		results, groups, err := s.evaluateBatch(r, canon, iters, workers)
		if err != nil {
			return nil, err
		}
		tEval := time.Now()
		s.spans.Record(tc, "model", "evaluate batch ("+strconv.Itoa(len(canon))+" tuples, "+
			strconv.Itoa(groups)+" groups)", t0, tEval)
		tRender := stageStart(tc)
		resp := buildBatchResponse(class, groups, results)
		s.spans.stage(tc, "render", tRender)
		return resp, nil
	})
}

// evaluateBatch runs the canonical tuple list through the model layer:
// one model resolution per (system, program) group, one vectorised
// EvaluateParallelInto per group over the shared pooled buffers. The
// caller already holds an admission slot, so cold characterisations
// triggered here don't claim a second one.
func (s *Server) evaluateBatch(r *http.Request, canon []canonTuple, iters map[string]int, workers int) ([]batchResultJSON, int, error) {
	cfgsPtr := cfgSlicePool.Get().(*[]machine.Config)
	ptsPtr := ptsSlicePool.Get().(*[]pareto.Point)
	defer cfgSlicePool.Put(cfgsPtr)
	defer ptsSlicePool.Put(ptsPtr)
	cfgs := (*cfgsPtr)[:0]
	for _, t := range canon {
		cfgs = append(cfgs, t.cfg)
	}
	*cfgsPtr = cfgs // retain any growth for the next request
	if cap(*ptsPtr) < len(canon) {
		*ptsPtr = make([]pareto.Point, len(canon))
	}
	pts := (*ptsPtr)[:len(canon)]

	groups := 0
	results := make([]batchResultJSON, len(canon))
	for lo := 0; lo < len(canon); {
		hi := lo + 1
		for hi < len(canon) && canon[hi].system == canon[lo].system && canon[hi].program == canon[lo].program {
			hi++
		}
		groups++
		e, err := s.model(r.Context(), modelKey{system: canon[lo].system, program: canon[lo].program}, true)
		if err != nil {
			return nil, 0, err
		}
		if err := pareto.EvaluateParallelInto(r.Context(), e.model, cfgs[lo:hi],
			iters[canon[lo].program], workers, pts[lo:hi]); err != nil {
			return nil, 0, fmt.Errorf("batch %s/%s: %w", canon[lo].system, canon[lo].program, err)
		}
		for i := lo; i < hi; i++ {
			results[i] = batchResultJSON{
				System:         canon[i].system,
				Program:        canon[i].program,
				predictionJSON: toPredictionJSON(pts[i].Pred),
			}
		}
		lo = hi
	}
	return results, groups, nil
}

// buildBatchResponse renders both wire shapes of a batch answer from one
// result list: the canonical JSON document and the NDJSON lines (one
// result per line, then a summary). Each result is marshalled exactly
// once and the fragment is spliced into both shapes — JSON encoding (and
// its float formatting) dominates the warm-batch profile, so rendering
// the results twice would nearly double the per-tuple serving cost.
func buildBatchResponse(class string, groups int, results []batchResultJSON) *cachedResponse {
	sum := mustJSON(struct {
		Class  string `json:"class"`
		Count  int    `json:"count"`
		Groups int    `json:"groups"`
	}{class, len(results), groups})
	resp := spliceResponse(sum, "results", "result", marshalEach(results))
	var simS, energyJ float64
	for i := range results {
		simS += results[i].TimeS
		energyJ += results[i].EnergyJ
	}
	// Attribution sums the results in canonical order, so a client summing
	// the body it received reproduces the header values float-exactly.
	resp.attr = makeAttribution(len(results), simS, energyJ)
	return resp
}

// marshalEach renders one JSON fragment per element.
func marshalEach[T any](items []T) [][]byte {
	frags := make([][]byte, len(items))
	for i := range items {
		frags[i] = mustJSON(items[i])
	}
	return frags
}

// spliceResponse assembles both wire shapes from a marshalled summary
// object and per-item fragments: the document is the summary with an
// appended `"<listKey>":[...]` array, each NDJSON line wraps one fragment
// as `{"type":"<itemKey>","<itemKey>":...}`, and the trailing summary line
// re-tags the same summary bytes. Splicing — rather than re-marshalling —
// is what makes the streamed and document forms byte-identical per item.
func spliceResponse(sum []byte, listKey, itemKey string, frags [][]byte) *cachedResponse {
	n := 0
	for _, f := range frags {
		n += len(f) + 1
	}
	body := make([]byte, 0, len(sum)+len(listKey)+n+16)
	body = append(body, sum[:len(sum)-1]...) // summary object sans closing brace
	body = append(body, `,"`...)
	body = append(body, listKey...)
	body = append(body, `":[`...)
	for i, f := range frags {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, f...)
	}
	body = append(body, ']', '}', '\n')

	lines := make([][]byte, 0, len(frags)+1)
	for _, f := range frags {
		line := make([]byte, 0, len(itemKey)*2+len(f)+16)
		line = append(line, `{"type":"`...)
		line = append(line, itemKey...)
		line = append(line, `","`...)
		line = append(line, itemKey...)
		line = append(line, `":`...)
		line = append(line, f...)
		line = append(line, '}')
		lines = append(lines, line)
	}
	sumLine := make([]byte, 0, len(sum)+20)
	sumLine = append(sumLine, `{"type":"summary",`...)
	sumLine = append(sumLine, sum[1:]...) // summary fields sans opening brace
	lines = append(lines, sumLine)
	return &cachedResponse{body: body, lines: lines}
}
