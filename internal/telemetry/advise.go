package telemetry

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"hybridperf/internal/characterize"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// POST /v1/advise: the online DVFS advisory endpoint. For one (system,
// program, nodes, cores) it picks the static Pareto point over the
// frequency axis, replays the DES once per runtime governor policy from
// that point, and returns each policy's frequency schedule and its
// energy/makespan delta against the ungoverned static run — plus the
// recommended policy. The evaluation itself lives in
// characterize.Advise; this file is only the wire layer: decode,
// validation, canonicalisation, admission, caching, attribution.

// adviseRequest is the /v1/advise body.
type adviseRequest struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Nodes   int    `json:"nodes"` // 0 = testbed size
	Cores   int    `json:"cores"` // 0 = cores per node
	// Policies selects a subset of the governor suite; empty evaluates
	// every policy. Order and duplicates are erased: the response is
	// always in suite order.
	Policies []string `json:"policies"`
	// MaxSlowdownPct is the makespan tolerance in percent (the
	// phase-predictive governor's budget and the recommendation
	// cut-off); 0 takes the server default.
	MaxSlowdownPct float64 `json:"max_slowdown_pct"`
	Engine         string  `json:"engine"` // optional; only "sequential"
}

// canonPolicies validates the requested policy names and returns the
// canonical selection: the full suite when empty, otherwise the suite
// filtered to the requested set — suite order, duplicates erased.
func canonPolicies(requested []string) ([]string, error) {
	if len(requested) == 0 {
		return dvfs.Policies(), nil
	}
	want := make(map[string]bool, len(requested))
	for _, p := range requested {
		if !dvfs.ValidPolicy(p) {
			return nil, fmt.Errorf("unknown policy %q (have %v)", p, dvfs.Policies())
		}
		want[p] = true
	}
	var out []string
	for _, p := range dvfs.Policies() {
		if want[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	tc, _ := traceContextFor(r.Context())
	tDecode := stageStart(tc)
	body, ok := readBodyMax(w, r, 1<<20)
	if !ok {
		return
	}
	var req adviseRequest
	if !decodeJSONBytes(w, body, &req) {
		return
	}
	s.spans.stage(tc, "decode", tDecode)
	if !validEngine(w, req.Engine) {
		return
	}
	if s.forwardIfRemote(w, r, body, req.System, req.Program) {
		return
	}
	// Validate and resolve defaults before the cache is consulted, so
	// the key is canonical (an explicit nodes equal to the testbed size
	// hits the same entry as an omitted one) and garbage requests never
	// reach the cache.
	prof, err := machine.ByName(req.System)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unknown system %q", req.System)
		return
	}
	spec, err := workload.ByName(req.Program)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unknown program %q", req.Program)
		return
	}
	class := req.Class
	if class == "" {
		class = string(workload.ClassA)
	}
	if _, err := spec.Iterations(workload.Class(class)); err != nil {
		httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
		return
	}
	nodes, cores := req.Nodes, req.Cores
	if nodes == 0 {
		nodes = prof.MaxNodes
	}
	if cores == 0 {
		cores = prof.CoresPerNode
	}
	if err := prof.ValidateConfig(machine.Config{Nodes: nodes, Cores: cores, Freq: prof.FMax()}); err != nil {
		httpError(w, http.StatusBadRequest, "invalid configuration: %v", err)
		return
	}
	policies, err := canonPolicies(req.Policies)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	slowdown := s.advSlowdown
	if req.MaxSlowdownPct != 0 {
		if !(req.MaxSlowdownPct > 0 && req.MaxSlowdownPct < 100) {
			httpError(w, http.StatusBadRequest, "max_slowdown_pct %g out of range (0,100)", req.MaxSlowdownPct)
			return
		}
		slowdown = req.MaxSlowdownPct / 100
	}
	annotate(r.Context(),
		slog.String("system", req.System),
		slog.String("program", req.Program),
		slog.String("class", class),
		slog.Int("nodes", nodes),
		slog.Int("cores", cores))

	key := adviseCacheKey(req.System, req.Program, class, nodes, cores, policies, slowdown)
	s.respondCached(w, r, "/v1/advise", key, func() (*cachedResponse, error) {
		// An advisory evaluation runs the DES once per runtime policy plus
		// the baseline — always the heavy path, so it always counts against
		// the campaign budget, exactly like a sweep. The flight leader's
		// slot covers a cold characterisation too (model is told the
		// request is already admitted).
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("advise: %w", errSaturated)
		}
		defer release()
		e, err := s.model(r.Context(), modelKey{system: req.System, program: req.Program}, true)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		adv, err := characterize.Advise(e.model, e.prof, e.spec, characterize.AdviseOptions{
			Class:         workload.Class(class),
			Nodes:         nodes,
			Cores:         cores,
			Policies:      policies,
			MaxSlowdown:   slowdown,
			Seed:          s.cfg.Seed,
			Workers:       s.cfg.Workers,
			Ctx:           r.Context(),
			SharedMetrics: s.engine,
			Observe:       s.spans.Observer("exec"),
		})
		if err != nil {
			return nil, fmt.Errorf("advise failed: %w", err)
		}
		tEval := time.Now()
		s.spans.Record(tc, "model", "advise "+req.System+"/"+req.Program+
			" ("+strconv.Itoa(len(adv.Policies))+" policies)", t0, tEval)
		// Per-policy governor accounting, recorded on the cold path only
		// — cache hits repeat the answer, not the evaluation.
		for _, out := range adv.Policies {
			s.mAdviseEvals.With(out.Policy).Inc()
			if saved := adv.BaselineEnergyJ - out.EnergyJ; saved > 0 {
				s.mAdviseSaved.With(out.Policy).Add(saved)
			}
		}
		s.mAdviseRec.With(adv.Recommended).Inc()
		tRender := stageStart(tc)
		resp := buildAdviseResponse(req.System, req.Program, class, slowdown, adv)
		s.spans.stage(tc, "render", tRender)
		return resp, nil
	})
}

// adviseSummary is the header of an advise answer: everything except the
// per-policy list. It doubles as the NDJSON summary line, so the
// streamed and document forms carry identical fields by construction.
type adviseSummary struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Nodes   int    `json:"nodes"`
	Cores   int    `json:"cores"`
	// Static is the model's prediction at the static Pareto point the
	// governed runs start from (min-EDP over the DVFS levels).
	Static predictionJSON `json:"static"`
	// Baseline measures the ungoverned DES run at the static point —
	// the denominator of every per-policy delta.
	BaselineTimeS   float64 `json:"baseline_time_s"`
	BaselineEnergyJ float64 `json:"baseline_energy_j"`
	MaxSlowdownPct  float64 `json:"max_slowdown_pct"`
	Recommended     string  `json:"recommended"`
}

// adviseTransitionJSON is one frequency-schedule step.
type adviseTransitionJSON struct {
	Iter    int     `json:"iter"`
	FreqGHz float64 `json:"freq_ghz"`
}

// advisePolicyJSON is one policy's governed outcome on the wire.
type advisePolicyJSON struct {
	Policy           string                 `json:"policy"`
	TimeS            float64                `json:"time_s"`
	EnergyJ          float64                `json:"energy_j"`
	MakespanDeltaPct float64                `json:"makespan_delta_pct"`
	EnergyDeltaPct   float64                `json:"energy_delta_pct"`
	Schedule         []adviseTransitionJSON `json:"schedule"`
}

// buildAdviseResponse renders both wire shapes of an advise answer — the
// JSON document (summary fields + policies array) and the NDJSON lines
// (one policy per line, then the summary) — by marshalling each policy
// outcome once and splicing the fragments into both shapes.
func buildAdviseResponse(system, program, class string, maxSlowdown float64, adv *characterize.Advice) *cachedResponse {
	sum := adviseSummary{
		System:          system,
		Program:         program,
		Class:           class,
		Nodes:           adv.Static.Cfg.Nodes,
		Cores:           adv.Static.Cfg.Cores,
		Static:          toPredictionJSON(adv.Static.Pred),
		BaselineTimeS:   adv.BaselineTimeS,
		BaselineEnergyJ: adv.BaselineEnergyJ,
		MaxSlowdownPct:  maxSlowdown * 100,
		Recommended:     adv.Recommended,
	}
	outs := make([]advisePolicyJSON, len(adv.Policies))
	for i, p := range adv.Policies {
		sched := make([]adviseTransitionJSON, len(p.Schedule))
		for j, tr := range p.Schedule {
			sched[j] = adviseTransitionJSON{Iter: tr.Iter, FreqGHz: tr.Freq / 1e9}
		}
		outs[i] = advisePolicyJSON{
			Policy:           p.Policy,
			TimeS:            p.TimeS,
			EnergyJ:          p.EnergyJ,
			MakespanDeltaPct: p.TimeDelta * 100,
			EnergyDeltaPct:   p.EnergyDelta * 100,
			Schedule:         sched,
		}
	}
	resp := spliceResponse(mustJSON(sum), "policies", "policy", marshalEach(outs))
	// Attribution covers the simulations the answer carries: the
	// baseline run plus one governed run per policy.
	resp.attr = makeAttribution(adv.Runs, adv.SimSeconds, adv.SimEnergyJ)
	return resp
}
