package gateway

// The gateway's side of distributed tracing: per-request cost
// attribution on merged answers, and the stitch endpoint that assembles
// one Chrome-trace file from every hop's span payload.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"hybridperf/internal/telemetry"
	"hybridperf/internal/trace"
)

// applyAttribution stamps the merged answer's cost totals — prediction
// count, simulated seconds, predicted energy summed over what the body
// carries — onto the response headers (same names the shards use) and
// the gateway's per-route aggregate series.
func (g *Gateway) applyAttribution(w http.ResponseWriter, route string, preds int, simS, energyJ float64) {
	h := w.Header()
	h.Set(telemetry.PredictionsHeader, strconv.Itoa(preds))
	h.Set(telemetry.SimSecondsHeader, strconv.FormatFloat(simS, 'g', -1, 64))
	h.Set(telemetry.EnergyHeader, strconv.FormatFloat(energyJ, 'g', -1, 64))
	g.countAttribution(route, preds, simS, energyJ)
}

// countRelayed adds a relayed answer's cost headers, which the client
// receives verbatim, to the gateway's per-route aggregate series.
func (g *Gateway) countRelayed(route string, hdr http.Header) {
	preds, err := strconv.Atoi(hdr.Get(telemetry.PredictionsHeader))
	if err != nil || preds < 0 {
		return
	}
	simS, _ := strconv.ParseFloat(hdr.Get(telemetry.SimSecondsHeader), 64)
	energyJ, _ := strconv.ParseFloat(hdr.Get(telemetry.EnergyHeader), 64)
	g.countAttribution(route, preds, simS, energyJ)
}

func (g *Gateway) countAttribution(route string, preds int, simS, energyJ float64) {
	g.mPreds.With(route).Add(uint64(preds))
	g.mSimS.With(route).Add(simS)
	g.mEnergy.With(route).Add(energyJ)
}

// handleTraceByID serves the stitched GET /debug/trace/{traceid}: the
// gateway's own span payload plus every shard's (pulled from their
// /debug/trace endpoints), rendered as one multi-process Chrome-trace
// JSON file — gateway fan-out spans, per-shard handler spans and any
// attached engine phase timeline, all under one trace id on one
// wall-clock axis.
func (g *Gateway) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceid")
	var payloads []*telemetry.TracePayload
	if own := g.spans.Payload(id, "gateway"); own != nil {
		payloads = append(payloads, own)
	}
	fetched := make([]*telemetry.TracePayload, len(g.peers))
	var wg sync.WaitGroup
	for i, p := range g.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			fetched[i] = g.fetchTrace(r.Context(), peer, id)
		}(i, p)
	}
	wg.Wait()
	for _, p := range fetched {
		if p != nil {
			payloads = append(payloads, p)
		}
	}
	if len(payloads) == 0 {
		httpError(w, http.StatusNotFound,
			"no hop recorded trace id %q (sampled traces only, bounded retention)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChromeProcesses(w, stitchProcesses(payloads))
}

// fetchTrace pulls one shard's payload for a trace id; a 404 (the shard
// never saw the request, or its window evicted the entry) and a
// transport failure both simply contribute nothing to the stitch.
func (g *Gateway) fetchTrace(ctx context.Context, peer, id string) *telemetry.TracePayload {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/debug/trace/"+id, nil)
	if err != nil {
		return nil
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var p telemetry.TracePayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil
	}
	return &p
}

// stitchProcesses converts hop payloads into one lane group per hop on a
// shared time axis (seconds since the earliest recorded span). An engine
// phase timeline is anchored at the start of the characterisation span
// that produced it — the hop's first, since the first timeline wins — so
// the virtual-time lane renders inside the wall-clock span that paid for
// it.
func stitchProcesses(payloads []*telemetry.TracePayload) []trace.ProcessTrace {
	t0 := int64(0)
	first := true
	for _, p := range payloads {
		for _, s := range p.Spans {
			if first || s.StartUS < t0 {
				t0, first = s.StartUS, false
			}
		}
	}
	procs := make([]trace.ProcessTrace, 0, len(payloads))
	for _, p := range payloads {
		proc := trace.ProcessTrace{Name: p.Source}
		charStart, anchored := 0.0, false
		for _, s := range p.Spans {
			start := float64(s.StartUS-t0) / 1e6
			end := float64(s.EndUS-t0) / 1e6
			proc.Spans = append(proc.Spans, trace.Span{Name: s.Name, Cat: s.Cat, Start: start, End: end})
			if !anchored && s.Cat == "model" && strings.HasPrefix(s.Name, "characterize ") {
				charStart, anchored = start, true
			}
		}
		for _, ph := range p.Phases {
			kind, ok := trace.ParseKind(ph.Kind)
			if !ok {
				continue
			}
			proc.Phases = append(proc.Phases, trace.Event{Rank: ph.Rank, Kind: kind, Start: ph.StartS, End: ph.EndS})
		}
		proc.PhaseOffset = charStart
		procs = append(procs, proc)
	}
	return procs
}
