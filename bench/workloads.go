package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"hybridperf"
	"hybridperf/internal/cluster"
)

// A workload is one traffic mix driven against freshly booted daemons.
// A traced run splits the measured time evenly over three phases: open
// loop at the workload's low rate, open loop at its high rate, then a
// closed loop with one client per CPU. An untraced run, whose metrics come
// from the closed loop alone, gives it all of the measured time. The
// rates are frozen here, so later commits are
// measured at the same offered load: for the serving workloads about 15 %
// and 40 % of the closed-loop capacity measured at the commit that
// introduced the benchmark, since on two CPUs the open loop saturates near
// 60 % (see README.md).
type workload struct {
	name string
	why  string
	// low and high are the open-loop Poisson arrival rates [req/s].
	low, high float64
	// gateway runs two -self/-peers shards behind hybridperf-gw instead of
	// one daemon.
	gateway bool
	// wantCache, when set, is the X-Response-Cache value every response
	// of the workload must carry.
	wantCache string
	// chunk is the length of the closed-loop stretches between two
	// measurements of the host reference: short, so the reference follows
	// the host, but long enough that the requests still in flight when a
	// chunk ends are few of the requests it completes.
	chunk time.Duration
	// speedRef is the host reference the closed loop's rate is scaled by:
	// the one whose work resembles the workload's.
	speedRef *hostRef
}

var workloads = []*workload{
	{
		name: "serve-fresh",
		why:  "every body new (80% predict, 15% batch of 16-192 tuples, 5% sweep): work lands in core/pareto, decode and render, and the response cache only misses and evicts",
		low:  900, high: 2300, chunk: time.Second, speedRef: httpRef,
	},
	{
		name: "serve-hot",
		why:  "70% batch, 30% sweep drawn Zipf(1.1) from 64 bodies answered during setup: every request is a response-cache hit, so work lands in the cache, body memo and HTTP",
		low:  1000, high: 2600, wantCache: "hit", chunk: time.Second, speedRef: httpRef,
	},
	{
		name: "advise-fresh",
		why:  "unique /v1/advise keys: every request misses the cache and runs 4 multi-node governed simulations on the default engine, so work lands in des/exec",
		low:  2.5, high: 4, wantCache: "miss", chunk: 2 * time.Second, speedRef: computeRef,
	},
	{
		name: "gateway-fanout",
		why:  "fresh bodies through hybridperf-gw over 2 shards (60% predict, 30% batch spanning both owners, 10% sweep split across shards): the only workload exercising gateway and cluster",
		low:  180, high: 480, gateway: true, chunk: time.Second, speedRef: httpRef,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Phases of one boot, in order: an untimed warm-up, then the three timed
// phases. A request is identified by (phase, index), and its bytes depend
// only on the seed and that pair.
const (
	phaseWarm = iota
	phaseLow
	phaseHigh
	phaseClosed
	numPhases
)

// timedPhases is how many phases the measured time is split over.
const timedPhases = numPhases - 1

var phaseNames = [numPhases]string{"warm", "low", "high", "closed"}

type reqKind int

const (
	kPredict reqKind = iota
	kBatch
	kSweep
	kAdvise
)

var routes = [...]string{"/v1/predict", "/v1/batch", "/v1/sweep", "/v1/advise"}

type request struct {
	kind reqKind
	body []byte
}

// prng is splitmix64. Each request draws from its own stream derived from
// (seed, stream name, index), so request i of a phase has the same bytes
// whatever the timing and whichever client goroutine builds it. (A
// math/rand source costs a 5 KB allocation and microseconds to seed,
// which is too much per request at serving rates.)
type prng struct{ s uint64 }

func newPRNG(seed int64, stream string, i int) prng {
	h := uint64(14695981039346656037) // FNV-1a over the stream name
	for j := 0; j < len(stream); j++ {
		h = (h ^ uint64(stream[j])) * 1099511628211
	}
	r := prng{s: h ^ uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *prng) intn(n int) int          { return int(r.next() % uint64(n)) }
func (r *prng) float() float64          { return float64(r.next()>>11) / (1 << 53) }
func (r *prng) pick(xs []string) string { return xs[r.intn(len(xs))] }

// modelKey is one (system, program) pair as requests name it.
type modelKey struct{ system, program string }

// catalogue is the serving surface the workloads draw from: both systems
// by their request aliases and every program.
type catalogue struct {
	systems  []string
	programs []string
	keys     []modelKey
	prof     map[string]*hybridperf.System
}

func newCatalogue() (*catalogue, error) {
	c := &catalogue{systems: []string{"arm", "xeon"}, prof: map[string]*hybridperf.System{}}
	for _, p := range hybridperf.ExtendedPrograms() {
		c.programs = append(c.programs, p.Name)
	}
	for _, s := range c.systems {
		prof, err := hybridperf.SystemByName(s)
		if err != nil {
			return nil, err
		}
		c.prof[s] = prof
		for _, p := range c.programs {
			c.keys = append(c.keys, modelKey{s, p})
		}
	}
	return c, nil
}

var servedClasses = []string{"S", "A", "C"}

// generator builds a workload's request stream for one seed.
type generator struct {
	w    *workload
	seed int64
	cat  *catalogue
	// owner maps a model key to its owning shard (gateway-fanout only).
	owner func(modelKey) string

	hotPool []request   // serve-hot: the bodies answered during setup
	hotCDF  []float64   // serve-hot: Zipf(1.1) over hotPool ranks
	advise  []adviseKey // advise-fresh: the stratified key permutation
}

// hotPoolSize fits the daemon's default 512-entry response cache.
const hotPoolSize = 64

func newGenerator(w *workload, seed int64, cat *catalogue, shards []string) (*generator, error) {
	g := &generator{w: w, seed: seed, cat: cat}
	switch w.name {
	case "serve-hot":
		g.buildHotPool()
	case "advise-fresh":
		seq, err := adviseSequence(seed, cat)
		if err != nil {
			return nil, err
		}
		g.advise = seq
	case "gateway-fanout":
		ring, err := cluster.New(shards, 0)
		if err != nil {
			return nil, err
		}
		g.owner = func(k modelKey) string { return ring.Owner(cluster.ModelKey(k.system, k.program)) }
	}
	return g, nil
}

// request returns request i of a phase.
func (g *generator) request(phase, i int) request {
	r := newPRNG(g.seed, phaseNames[phase], i)
	switch g.w.name {
	case "serve-hot":
		return g.hotPool[sort.SearchFloat64s(g.hotCDF, r.float())]
	case "advise-fresh":
		return adviseRequest(g.advise[(adviseStart[phase]+i)%len(g.advise)])
	case "gateway-fanout":
		switch u := r.float(); {
		case u < 0.60:
			return g.predict(&r)
		case u < 0.90:
			return g.spanningBatch(&r)
		default:
			return g.sweep(&r)
		}
	default: // serve-fresh
		switch u := r.float(); {
		case u < 0.80:
			return g.predict(&r)
		case u < 0.95:
			return g.batch(&r, 16+r.intn(177), 1+r.intn(3))
		default:
			return g.sweep(&r)
		}
	}
}

func (g *generator) key(r *prng) modelKey { return g.cat.keys[r.intn(len(g.cat.keys))] }

// config draws a valid (nodes, cores, GHz) point of the system's testbed.
func (g *generator) config(r *prng, system string) (n, c int, ghz float64) {
	p := g.cat.prof[system]
	return 1 + r.intn(p.MaxNodes), 1 + r.intn(p.CoresPerNode), p.Frequencies[r.intn(len(p.Frequencies))] / 1e9
}

func (g *generator) predict(r *prng) request {
	k := g.key(r)
	class := r.pick(servedClasses)
	n, c, f := g.config(r, k.system)
	b := make([]byte, 0, 112)
	b = appendKey(b, k)
	b = append(b, `,"class":"`...)
	b = append(b, class...)
	b = appendConfig(append(b, '"'), n, c, f)
	return request{kind: kPredict, body: append(b, '}')}
}

// batch draws size tuples spread round-robin over groups random model keys.
func (g *generator) batch(r *prng, size, groups int) request {
	keys := make([]modelKey, groups)
	for i := range keys {
		keys[i] = g.key(r)
	}
	return g.batchOver(r, size, keys)
}

// spanningBatch is a batch whose tuples belong to both shards: its second
// group is owned by a different shard than its first.
func (g *generator) spanningBatch(r *prng) request {
	keys := []modelKey{g.key(r)}
	var other []modelKey
	for _, k := range g.cat.keys {
		if g.owner(k) != g.owner(keys[0]) {
			other = append(other, k)
		}
	}
	keys = append(keys, other[r.intn(len(other))])
	if r.intn(2) == 1 {
		keys = append(keys, g.key(r))
	}
	return g.batchOver(r, 16+r.intn(177), keys)
}

func (g *generator) batchOver(r *prng, size int, keys []modelKey) request {
	b := make([]byte, 0, 32+size*80)
	b = append(b, `{"class":"`...)
	b = append(b, r.pick(servedClasses)...)
	b = append(b, `","tuples":[`...)
	for i := 0; i < size; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		k := keys[i%len(keys)]
		n, c, f := g.config(r, k.system)
		b = appendKey(b, k)
		b = appendConfig(b, n, c, f)
		b = append(b, '}')
	}
	return request{kind: kBatch, body: append(b, "]}"...)}
}

// sweep asks for the whole testbed space of a random model with either a
// deadline (log-uniform 10 s..10^4 s) or an energy budget (log-uniform
// 1 kJ..10 MJ); the continuous draw makes every sweep body new.
func (g *generator) sweep(r *prng) request {
	k := g.key(r)
	b := make([]byte, 0, 96)
	b = appendKey(b, k)
	b = append(b, `,"class":"`...)
	b = append(b, r.pick(servedClasses)...)
	if r.intn(2) == 0 {
		b = append(b, `","deadline_s":`...)
		b = strconv.AppendFloat(b, math.Pow(10, 1+3*r.float()), 'g', -1, 64)
	} else {
		b = append(b, `","budget_j":`...)
		b = strconv.AppendFloat(b, math.Pow(10, 3+4*r.float()), 'g', -1, 64)
	}
	return request{kind: kSweep, body: append(b, '}')}
}

func appendKey(b []byte, k modelKey) []byte {
	b = append(b, `{"system":"`...)
	b = append(b, k.system...)
	b = append(b, `","program":"`...)
	b = append(b, k.program...)
	return append(b, '"')
}

func appendConfig(b []byte, n, c int, ghz float64) []byte {
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(c), 10)
	b = append(b, `,"freq_ghz":`...)
	return strconv.AppendFloat(b, ghz, 'g', -1, 64)
}

// buildHotPool draws the serve-hot bodies. The kind and tuple count of
// each popularity rank follow a fixed pattern and only the contents come
// from the seed, so every seed offers the same cost mix.
func (g *generator) buildHotPool() {
	g.hotPool = make([]request, hotPoolSize)
	for rank := range g.hotPool {
		r := newPRNG(g.seed, "hot-pool", rank)
		if rank%10 < 7 {
			g.hotPool[rank] = g.batch(&r, 16+rank*53%177, 1+rank%3)
		} else {
			g.hotPool[rank] = g.sweep(&r)
		}
	}
	g.hotCDF = make([]float64, hotPoolSize)
	sum := 0.0
	for rank := range g.hotCDF {
		sum += math.Pow(float64(rank+1), -1.1)
		g.hotCDF[rank] = sum
	}
	for rank := range g.hotCDF {
		g.hotCDF[rank] /= sum
	}
	g.hotCDF[hotPoolSize-1] = 1 // SearchFloat64s never runs off the end
}

// adviseKey is one /v1/advise request.
type adviseKey struct {
	system, program, class string
	nodes, cores, pct      int
}

func adviseRequest(k adviseKey) request {
	b := make([]byte, 0, 112)
	b = appendKey(b, modelKey{k.system, k.program})
	b = append(b, `,"class":"`...)
	b = append(b, k.class...)
	b = append(b, `","nodes":`...)
	b = strconv.AppendInt(b, int64(k.nodes), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(k.cores), 10)
	b = append(b, `,"max_slowdown_pct":`...)
	b = strconv.AppendInt(b, int64(k.pct), 10)
	return request{kind: kAdvise, body: append(b, '}')}
}

// adviseStrata splits the advise keys into cost strata; each round of the
// sequence takes one key from every stratum.
const adviseStrata = 48

// adviseStart is where each phase starts in the advise sequence, in whole
// rounds, so no key is sent twice in one run.
var adviseStart = [numPhases]int{0, 9 * adviseStrata, 18 * adviseStrata, 33 * adviseStrata}

// adviseSequence returns every advise key — (system, program, class S or
// A, nodes, cores, max_slowdown_pct 2/5/10), 3,456 of them — in a seeded
// order stratified by cost. An advise request costs from under a
// millisecond to half a second, roughly in proportion to the simulated
// rank-iterations (iterations × nodes × cores). The keys are sorted by
// that estimate and cut into strata; round r takes the r-th key of every
// stratum's seeded permutation. So every prefix of the sequence has the same cost mix whatever the
// seed, and capacity and latency repeat across seeds although every key
// differs.
func adviseSequence(seed int64, cat *catalogue) ([]adviseKey, error) {
	type costed struct {
		k    adviseKey
		cost int
	}
	var keys []costed
	for _, s := range cat.systems {
		p := cat.prof[s]
		for _, prog := range cat.programs {
			spec, err := hybridperf.ProgramByName(prog)
			if err != nil {
				return nil, err
			}
			for _, class := range []string{"S", "A"} {
				iters, err := spec.Iterations(hybridperf.Class(class))
				if err != nil {
					return nil, err
				}
				for n := 1; n <= p.MaxNodes; n++ {
					for c := 1; c <= p.CoresPerNode; c++ {
						for _, pct := range []int{2, 5, 10} {
							keys = append(keys, costed{adviseKey{s, prog, class, n, c, pct}, iters * n * c})
						}
					}
				}
			}
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].cost < keys[j].cost })
	per := len(keys) / adviseStrata
	// Strata in van der Corput order (0, 24, 12, 36, 6, ...): any run of
	// consecutive requests spans the cost range evenly, so even the dozen
	// requests of a low-rate phase have a median near the middle stratum.
	order := make([]int, 0, adviseStrata)
	taken := make([]bool, adviseStrata)
	for k := uint(0); len(order) < adviseStrata; k++ {
		x, f := 0.0, 0.5
		for b := k; b > 0; b >>= 1 {
			if b&1 == 1 {
				x += f
			}
			f /= 2
		}
		if s := int(x * adviseStrata); !taken[s] {
			taken[s] = true
			order = append(order, s)
		}
	}
	perms := make([][]int, adviseStrata)
	for s := range perms {
		r := newPRNG(seed, "advise-stratum", s)
		perm := make([]int, per)
		for i := range perm {
			j := r.intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		perms[s] = perm
	}
	seq := make([]adviseKey, 0, len(keys))
	for round := 0; round < per; round++ {
		for _, s := range order {
			seq = append(seq, keys[s*per+perms[s][round]].k)
		}
	}
	return seq, nil
}
