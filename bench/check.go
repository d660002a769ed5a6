package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"hybridperf"
	"hybridperf/internal/characterize"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/metrics"
	"hybridperf/internal/pareto"
)

// serveSeed is hybridperfd's default -seed: the daemons characterise every
// model with it, so answers computed in-process with the same seed must
// match theirs bit for bit.
const serveSeed = 42

// adviseRecomputes is how many sampled /v1/advise answers are recomputed;
// each one re-runs four simulations.
const adviseRecomputes = 8

// reference computes the expected answers in the benchmark process. Its
// simulations run one at a time, so their wall times are the per-layer
// costs of des, exec and characterize.
type reference struct {
	models map[modelKey]*hybridperf.Model
	tr     *tracer
	eng    *metrics.Engine // events of every simulation run here

	mu       sync.Mutex
	runs     []float64 // exec.Run wall times [ms]
	campaign time.Duration
	advises  []float64 // characterize.Advise wall times [ms]
}

func newReference(cat *catalogue, tr *tracer) (*reference, error) {
	ref := &reference{models: map[modelKey]*hybridperf.Model{}, tr: tr, eng: metrics.NewEngine()}
	for _, k := range cat.keys {
		prog, err := hybridperf.ProgramByName(k.program)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		m, err := hybridperf.Characterize(cat.prof[k.system], prog, &hybridperf.CharacterizeOptions{
			Seed: serveSeed, Workers: 1, SharedMetrics: ref.eng, Observe: ref.observe,
		})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("characterising %s/%s: %w", k.system, k.program, err)
		}
		ref.campaign += end.Sub(start)
		tr.span("bench", "layer", "characterize.Run "+k.system+"/"+k.program, start, end)
		ref.models[k] = m
	}
	return ref, nil
}

// observe receives the wall-clock span of every simulation and campaign
// stage; runs are labelled "run <program> <config>".
func (ref *reference) observe(label string, start, end time.Time) {
	if !strings.HasPrefix(label, "run ") {
		return
	}
	ref.mu.Lock()
	ref.runs = append(ref.runs, float64(end.Sub(start))/1e6)
	ref.mu.Unlock()
	ref.tr.span("bench", "exec", label, start, end)
}

func (ref *reference) advise(k adviseKey) (*characterize.Advice, error) {
	m := ref.models[modelKey{k.system, k.program}]
	start := time.Now()
	adv, err := characterize.Advise(m.Core(), m.System(), m.Program(), characterize.AdviseOptions{
		Class:         hybridperf.Class(k.class),
		Nodes:         k.nodes,
		Cores:         k.cores,
		MaxSlowdown:   float64(k.pct) / 100,
		Seed:          serveSeed,
		Workers:       1,
		SharedMetrics: ref.eng,
		Observe:       ref.observe,
	})
	end := time.Now()
	ref.advises = append(ref.advises, float64(end.Sub(start))/1e6)
	ref.tr.span("bench", "layer", fmt.Sprintf("characterize.Advise %s/%s %s n=%d c=%d", k.system, k.program, k.class, k.nodes, k.cores), start, end)
	return adv, err
}

// Wire forms of the daemons' answers. Decoding rejects unknown fields, so
// an answer carrying anything else — a gateway's shard_errors annotation
// included — fails the check.
type configJSON struct {
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

type predictionJSON struct {
	Config  configJSON `json:"config"`
	TimeS   float64    `json:"time_s"`
	EnergyJ float64    `json:"energy_j"`
	PowerW  float64    `json:"power_w"`
	UCR     float64    `json:"ucr"`
}

func wantPrediction(p hybridperf.Prediction) predictionJSON {
	power := 0.0
	if p.T > 0 {
		power = p.E / p.T
	}
	return predictionJSON{
		Config: configJSON{Nodes: p.Cfg.Nodes, Cores: p.Cfg.Cores, FreqGHz: p.Cfg.GHz()},
		TimeS:  p.T, EnergyJ: p.E, PowerW: power, UCR: p.UCR,
	}
}

type predictAnswer struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	predictionJSON
}

type batchResult struct {
	System  string `json:"system"`
	Program string `json:"program"`
	predictionJSON
}

type batchAnswer struct {
	Class   string        `json:"class"`
	Count   int           `json:"count"`
	Groups  int           `json:"groups"`
	Results []batchResult `json:"results"`
}

type sweepAnswer struct {
	System   string           `json:"system"`
	Program  string           `json:"program"`
	Class    string           `json:"class"`
	Configs  int              `json:"configs"`
	Points   int              `json:"frontier_points"`
	Deadline *predictionJSON  `json:"min_energy_within_deadline,omitempty"`
	Budget   *predictionJSON  `json:"min_time_within_budget,omitempty"`
	Frontier []predictionJSON `json:"frontier"`
}

type adviseAnswer struct {
	System          string         `json:"system"`
	Program         string         `json:"program"`
	Class           string         `json:"class"`
	Nodes           int            `json:"nodes"`
	Cores           int            `json:"cores"`
	Static          predictionJSON `json:"static"`
	BaselineTimeS   float64        `json:"baseline_time_s"`
	BaselineEnergyJ float64        `json:"baseline_energy_j"`
	MaxSlowdownPct  float64        `json:"max_slowdown_pct"`
	Recommended     string         `json:"recommended"`
	Policies        []policyJSON   `json:"policies"`
}

type policyJSON struct {
	Policy           string           `json:"policy"`
	TimeS            float64          `json:"time_s"`
	EnergyJ          float64          `json:"energy_j"`
	MakespanDeltaPct float64          `json:"makespan_delta_pct"`
	EnergyDeltaPct   float64          `json:"energy_delta_pct"`
	Schedule         []transitionJSON `json:"schedule"`
}

type transitionJSON struct {
	Iter    int     `json:"iter"`
	FreqGHz float64 `json:"freq_ghz"`
}

// The request bodies the generator built, decoded back.
type tupleBody struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

func (t tupleBody) config() hybridperf.Config {
	return hybridperf.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: t.FreqGHz * 1e9}
}

type requestBody struct {
	tupleBody
	Class     string      `json:"class"`
	Tuples    []tupleBody `json:"tuples"`
	DeadlineS float64     `json:"deadline_s"`
	BudgetJ   float64     `json:"budget_j"`
	MaxSlowPc int         `json:"max_slowdown_pct"`
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkSamples verifies every distinct retained answer against the reference; the
// first adviseRecomputes advise answers are recomputed in full.
func (r *runner) checkSamples(res *result, ref *reference) {
	advised := 0
	for _, s := range r.samples {
		if s.req.kind == kAdvise {
			if advised == adviseRecomputes {
				continue
			}
			advised++
		}
		if err := ref.check(s.req, s.body); err != nil {
			res.fail("%s request %d (%s): %v", phaseNames[s.phase], s.i, routes[s.req.kind], err)
		}
	}
	res.info = append(res.info, fmt.Sprintf("checked %d distinct of %d sampled answers (%d advise recomputed)", len(r.samples), r.sampled, advised))
	if len(r.samples) == 0 {
		res.fail("no answers sampled for checking")
	}
}

// check compares one answer with the in-process model's.
func (ref *reference) check(req request, body []byte) error {
	var in requestBody
	if err := json.Unmarshal(req.body, &in); err != nil {
		return fmt.Errorf("decoding the request: %w", err)
	}
	var got, want any
	switch req.kind {
	case kPredict:
		p, err := ref.predict(in.System, in.Program, in.Class, in.tupleBody)
		if err != nil {
			return err
		}
		got, want = &predictAnswer{}, &predictAnswer{in.System, in.Program, in.Class, p}
	case kBatch:
		w, err := ref.batch(in)
		if err != nil {
			return err
		}
		got, want = &batchAnswer{}, w
	case kSweep:
		w, err := ref.sweep(in)
		if err != nil {
			return err
		}
		got, want = &sweepAnswer{}, w
	case kAdvise:
		w, err := ref.adviseAnswer(in)
		if err != nil {
			return err
		}
		got, want = &adviseAnswer{}, w
	}
	if err := decodeStrict(body, got); err != nil {
		return fmt.Errorf("decoding the answer: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Errorf("answer differs from the in-process model:\n  got  %s\n  want %s", g, w)
	}
	return nil
}

func (ref *reference) model(system, program string) (*hybridperf.Model, error) {
	m, ok := ref.models[modelKey{system, program}]
	if !ok {
		return nil, fmt.Errorf("no model for %s/%s", system, program)
	}
	return m, nil
}

func (ref *reference) predict(system, program, class string, t tupleBody) (predictionJSON, error) {
	m, err := ref.model(system, program)
	if err != nil {
		return predictionJSON{}, err
	}
	p, err := m.Predict(t.config(), hybridperf.Class(class))
	if err != nil {
		return predictionJSON{}, err
	}
	return wantPrediction(p), nil
}

// batch answers in canonical order: tuples sorted by (system, program,
// nodes, cores, frequency) with duplicates dropped.
func (ref *reference) batch(in requestBody) (*batchAnswer, error) {
	order := func(a, b tupleBody) int {
		return cmp.Or(strings.Compare(a.System, b.System), strings.Compare(a.Program, b.Program),
			cmp.Compare(a.Nodes, b.Nodes), cmp.Compare(a.Cores, b.Cores), cmp.Compare(a.FreqGHz*1e9, b.FreqGHz*1e9))
	}
	ts := slices.Clone(in.Tuples)
	slices.SortFunc(ts, order)
	ts = slices.CompactFunc(ts, func(a, b tupleBody) bool { return order(a, b) == 0 })
	out := &batchAnswer{Class: in.Class, Count: len(ts)}
	for i, t := range ts {
		if i == 0 || t.System != ts[i-1].System || t.Program != ts[i-1].Program {
			out.Groups++
		}
		p, err := ref.predict(t.System, t.Program, in.Class, t)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, batchResult{t.System, t.Program, p})
	}
	return out, nil
}

// sweep answers over the whole testbed space with the public Explore API.
func (ref *reference) sweep(in requestBody) (*sweepAnswer, error) {
	m, err := ref.model(in.System, in.Program)
	if err != nil {
		return nil, err
	}
	cfgs := m.Space(pareto.Range(1, m.System().MaxNodes))
	points, front, err := m.Explore(cfgs, hybridperf.Class(in.Class))
	if err != nil {
		return nil, err
	}
	out := &sweepAnswer{System: in.System, Program: in.Program, Class: in.Class, Configs: len(cfgs), Points: len(front)}
	if in.DeadlineS > 0 {
		if p, ok := pareto.MinEnergyWithinDeadline(points, in.DeadlineS); ok {
			pj := wantPrediction(p.Pred)
			out.Deadline = &pj
		}
	}
	if in.BudgetJ > 0 {
		if p, ok := pareto.MinTimeWithinBudget(points, in.BudgetJ); ok {
			pj := wantPrediction(p.Pred)
			out.Budget = &pj
		}
	}
	for _, p := range front {
		out.Frontier = append(out.Frontier, wantPrediction(p.Pred))
	}
	return out, nil
}

// adviseAnswer recomputes an advice with characterize.Advise.
func (ref *reference) adviseAnswer(in requestBody) (*adviseAnswer, error) {
	adv, err := ref.advise(adviseKey{in.System, in.Program, in.Class, in.Nodes, in.Cores, in.MaxSlowPc})
	if err != nil {
		return nil, err
	}
	slowdown := float64(in.MaxSlowPc) / 100
	out := &adviseAnswer{
		System: in.System, Program: in.Program, Class: in.Class,
		Nodes: adv.Static.Cfg.Nodes, Cores: adv.Static.Cfg.Cores,
		Static:        wantPrediction(adv.Static.Pred),
		BaselineTimeS: adv.BaselineTimeS, BaselineEnergyJ: adv.BaselineEnergyJ,
		MaxSlowdownPct: slowdown * 100, Recommended: adv.Recommended,
	}
	for _, p := range adv.Policies {
		pj := policyJSON{
			Policy: p.Policy, TimeS: p.TimeS, EnergyJ: p.EnergyJ,
			MakespanDeltaPct: p.TimeDelta * 100, EnergyDeltaPct: p.EnergyDelta * 100,
		}
		for _, tr := range p.Schedule {
			pj.Schedule = append(pj.Schedule, transitionJSON{tr.Iter, tr.Freq / 1e9})
		}
		out.Policies = append(out.Policies, pj)
	}
	// Every answer must carry the whole suite; it is compared with this one.
	if len(out.Policies) != len(dvfs.Policies()) {
		return nil, fmt.Errorf("in-process advice carries %d policies, want %d", len(out.Policies), len(dvfs.Policies()))
	}
	return out, nil
}
