package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"hybridperf/internal/machine"
)

// Request canonicalisation maps every JSON body that asks for the same
// work to one cache key, so the response cache and its singleflight
// collapse see through syntactic variation: reordered JSON keys (erased
// by decoding), explicitly-spelled defaults (class "" vs "A", freq_ghz 0
// vs f_max, max_nodes 0 vs the testbed size), duplicate and reordered
// batch tuples. Knobs that change only how the answer is computed — never
// what it is — are excluded: workers (wall-clock only), and the optional
// engine field, which names the one engine or is rejected.
//
// The unit separator (0x1f) joins fields; it cannot appear in the
// validated system/program/class names the keys carry.

// canonFloat renders a float64 with the shortest round-trippable form, so
// two requests naming the same value canonicalise identically.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sweepCacheKey canonicalises a /v1/sweep request. Callers pass resolved
// values: class defaulted, maxNodes resolved against the profile.
func sweepCacheKey(system, program, class string, maxNodes int, pow2 bool, deadlineS, budgetJ float64) string {
	return strings.Join([]string{
		"sweep", system, program, class,
		strconv.Itoa(maxNodes), strconv.FormatBool(pow2),
		canonFloat(deadlineS), canonFloat(budgetJ),
	}, "\x1f")
}

// adviseCacheKey canonicalises a /v1/advise request. Callers pass
// resolved values: class defaulted, shape validated against the profile,
// policies canonicalised (suite order, deduplicated) and the makespan
// tolerance resolved to its fraction. Workers are excluded for the same
// reason they are everywhere else: the advice is bit-identical across
// worker counts.
func adviseCacheKey(system, program, class string, nodes, cores int, policies []string, maxSlowdown float64) string {
	return strings.Join([]string{
		"advise", system, program, class,
		strconv.Itoa(nodes), strconv.Itoa(cores),
		strings.Join(policies, ","), canonFloat(maxSlowdown),
	}, "\x1f")
}

// canonTuple is one batch tuple after validation and default resolution:
// names verified, frequency resolved to Hz (freq_ghz 0 → the profile's
// f_max).
type canonTuple struct {
	system, program string
	cfg             machine.Config
}

func (t canonTuple) less(u canonTuple) bool {
	if t.system != u.system {
		return t.system < u.system
	}
	if t.program != u.program {
		return t.program < u.program
	}
	if t.cfg.Nodes != u.cfg.Nodes {
		return t.cfg.Nodes < u.cfg.Nodes
	}
	if t.cfg.Cores != u.cfg.Cores {
		return t.cfg.Cores < u.cfg.Cores
	}
	return t.cfg.Freq < u.cfg.Freq
}

// canonicalizeTuples sorts tuples by (system, program, nodes, cores,
// freq) and drops duplicates, in place. The returned slice is the
// canonical evaluation order: /v1/batch responds in exactly this order,
// which is what makes byte-level response caching sound for bodies that
// list the same tuples shuffled or repeated.
func canonicalizeTuples(tuples []canonTuple) []canonTuple {
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].less(tuples[j]) })
	out := tuples[:0]
	for i, t := range tuples {
		if i > 0 && t == tuples[i-1] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// batchCacheKey canonicalises a /v1/batch request from its canonical
// tuple list (already sorted and deduplicated). Batch bodies can carry
// tens of thousands of tuples, so the key is the SHA-256 of the canonical
// serialisation rather than the serialisation itself — map keys stay
// small and comparisons O(1).
func batchCacheKey(class string, tuples []canonTuple) string {
	h := sha256.New()
	h.Write([]byte("batch\x1f" + class))
	var b []byte
	for _, t := range tuples {
		b = b[:0]
		b = append(b, 0x1f)
		b = append(b, t.system...)
		b = append(b, 0x1f)
		b = append(b, t.program...)
		b = append(b, 0x1f)
		b = strconv.AppendInt(b, int64(t.cfg.Nodes), 10)
		b = append(b, 0x1f)
		b = strconv.AppendInt(b, int64(t.cfg.Cores), 10)
		b = append(b, 0x1f)
		b = strconv.AppendFloat(b, t.cfg.Freq, 'g', -1, 64)
		h.Write(b)
	}
	return "batch\x1f" + hex.EncodeToString(h.Sum(nil))
}
