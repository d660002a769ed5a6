package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"hybridperf/internal/cluster"
)

// BenchmarkGatewayBatch times the gateway's batch path: one 192-tuple
// batch (8 models × 24 configurations) spanning both shards of an
// in-process cluster. The shards answer from warm response caches, so
// what is left is the gateway's decode, validation, fan-out, merge and
// render, plus the loopback HTTP hops.
func BenchmarkGatewayBatch(b *testing.B) {
	g, gts, shards := newCluster(b, 2)
	owners := map[string]bool{}
	var tuples []string
	for _, sys := range []string{"xeon", "arm"} {
		freqs := []float64{1.2, 1.8}
		if sys == "arm" {
			freqs = []float64{0.8, 1.4}
		}
		for _, prog := range []string{"SP", "CP", "LB", "FT"} {
			owners[g.ring.Owner(cluster.ModelKey(sys, prog))] = true
			for n := 1; n <= 4; n++ {
				for _, c := range []int{1, 2, 4} {
					for _, f := range freqs {
						tuples = append(tuples, fmt.Sprintf(`{"system":%q,"program":%q,"nodes":%d,"cores":%d,"freq_ghz":%g}`, sys, prog, n, c, f))
					}
				}
			}
		}
	}
	if len(owners) != len(shards) {
		b.Fatalf("the batch spans %d of %d shards", len(owners), len(shards))
	}
	body := []byte(`{"class":"S","tuples":[` + strings.Join(tuples, ",") + `]}`)
	do := func() {
		resp, err := http.Post(gts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("batch: status %d, %v", resp.StatusCode, err)
		}
	}
	do() // characterise the models and fill the shards' response caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}
