package gateway

// The replicas' batch answer framing (internal/telemetry's
// spliceResponse), read from shard answers and written to clients. The
// document form is the summary object with a "results" array of result
// fragments spliced in; the NDJSON form wraps each fragment in one
// result line and re-tags the summary as the last line. Both forms carry
// the same fragment bytes, so the gateway merges shard answers by moving
// fragments, never by decoding and re-rendering them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

const (
	resultLinePrefix  = `{"type":"result","result":`
	summaryLinePrefix = `{"type":"summary",`
)

// splitNDJSON checks the framing of a shard's NDJSON batch answer and
// returns its result fragments, each valid JSON and exactly the bytes
// the document form splices, and its summary line. Every line must end
// in a newline, and the summary must come last and count exactly the
// result lines before it, so a truncated stream is refused rather than
// merged short.
func splitNDJSON(raw []byte) (frags [][]byte, summary []byte, err error) {
	for len(raw) > 0 && summary == nil {
		line, rest, ok := bytes.Cut(raw, []byte{'\n'})
		if !ok {
			return nil, nil, errors.New("truncated line")
		}
		raw = rest
		if f, ok := bytes.CutPrefix(line, []byte(resultLinePrefix)); ok && bytes.HasSuffix(f, []byte{'}'}) && json.Valid(f[:len(f)-1]) {
			frags = append(frags, f[:len(f)-1])
			continue
		}
		if !bytes.HasPrefix(line, []byte(summaryLinePrefix)) || !json.Valid(line) {
			return nil, nil, fmt.Errorf("line %d is neither a valid result nor the summary", len(frags)+1)
		}
		summary = line
	}
	switch {
	case summary == nil:
		return nil, nil, errors.New("no summary line")
	case len(raw) > 0:
		return nil, nil, errors.New("data after the summary line")
	}
	m := members{b: summary}
	for key, val, ok := m.next(); ok; key, val, ok = m.next() {
		if string(key) == "count" {
			if n, err := strconv.Atoi(string(val)); err != nil || n != len(frags) {
				return nil, nil, fmt.Errorf("summary counts %s results, stream carries %d", val, len(frags))
			}
			return frags, summary, nil
		}
	}
	return nil, nil, errors.New("summary has no count")
}

// parseShardBatch reads a shard's NDJSON batch answer into results ready
// to merge.
func parseShardBatch(raw []byte) ([]shardResult, error) {
	frags, _, err := splitNDJSON(raw)
	if err != nil {
		return nil, err
	}
	out := make([]shardResult, len(frags))
	for i, f := range frags {
		if out[i], err = readResult(f); err != nil {
			return nil, fmt.Errorf("result %d: %w", i, err)
		}
	}
	return out, nil
}

// readResult slices the members the merge reads out of one result
// fragment that json.Valid accepted, without decoding the rest.
func readResult(frag []byte) (shardResult, error) {
	res := shardResult{frag: frag}
	var haveTime, haveEnergy bool
	m := members{b: frag}
	for key, val, ok := m.next(); ok; key, val, ok = m.next() {
		var err error
		switch string(key) {
		case "system":
			res.system, err = plainString(val)
		case "program":
			res.program, err = plainString(val)
		case "time_s":
			res.timeS, err = strconv.ParseFloat(string(val), 64)
			haveTime = true
		case "energy_j":
			res.energyJ, err = strconv.ParseFloat(string(val), 64)
			haveEnergy = true
		}
		if err != nil {
			return shardResult{}, fmt.Errorf("member %s: %w", key, err)
		}
	}
	if res.system == nil || res.program == nil || !haveTime || !haveEnergy {
		return shardResult{}, errors.New("missing system, program, time_s or energy_j")
	}
	return res, nil
}

// plainString returns the contents of a JSON string without escapes, the
// only kind the replicas render for catalogue names.
func plainString(val []byte) ([]byte, error) {
	if len(val) < 2 || val[0] != '"' || bytes.IndexByte(val, '\\') >= 0 {
		return nil, errors.New("not a plain JSON string")
	}
	return val[1 : len(val)-1], nil
}

// members iterates the top-level members of a JSON object that json.Valid
// accepted, yielding each raw key (quotes stripped, escapes kept) and raw
// value. Any other valid JSON value yields no members.
type members struct {
	b []byte
	i int
}

func (m *members) next() (key, val []byte, ok bool) {
	b := m.b
	i := skipSpace(b, m.i)
	if i >= len(b) || (b[i] != '{' && b[i] != ',') {
		return nil, nil, false
	}
	k := skipSpace(b, i+1)
	if k >= len(b) || b[k] != '"' {
		return nil, nil, false // the empty object
	}
	kEnd := valueEnd(b, k)
	v := skipSpace(b, skipSpace(b, kEnd)+1) // past the colon
	m.i = valueEnd(b, v)
	return b[k+1 : kEnd-1], b[v:m.i], true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// valueEnd returns the index just past the valid JSON value at b[i].
func valueEnd(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}

// writeBatch writes a merged batch answer as the canonical JSON document
// or, when the client asked, as NDJSON lines, in the replicas' exact
// shapes.
func writeBatch(w http.ResponseWriter, r *http.Request, sum []byte, frags [][]byte) {
	if !wantStream(r) {
		w.Header().Set("Content-Type", "application/json")
		var body bytes.Buffer
		body.Write(sum[:len(sum)-1])
		body.WriteString(`,"results":[`)
		for i, f := range frags {
			if i > 0 {
				body.WriteByte(',')
			}
			body.Write(f)
		}
		body.WriteString("]}\n")
		w.Write(body.Bytes())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i, f := range frags {
		w.Write([]byte(resultLinePrefix))
		w.Write(f)
		w.Write([]byte("}\n"))
		if flusher != nil && (i+1)%32 == 0 {
			flusher.Flush()
		}
	}
	w.Write([]byte(summaryLinePrefix))
	w.Write(sum[1:])
	w.Write([]byte{'\n'})
	if flusher != nil {
		flusher.Flush()
	}
}
