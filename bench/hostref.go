package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"
)

// A hostRef is a fixed piece of work that shares nothing with the code
// under test, run in this process between the measured stretches of a
// run while the daemons are idle. On a shared VM the host's speed drifts
// by a third or more within minutes, for computation and for loopback
// HTTP alike. The time metrics are scaled by the speed the reference
// measured around them, so that runs made at different times compare the
// daemons and not the host.
type hostRef struct {
	name string
	// nominal is the reference's rate [ops/s] on the nominal host: the
	// median over the runs on the 2-vCPU VM the benchmark was calibrated
	// on. A scaled metric reads as it would there.
	nominal float64
	// start prepares the reference and returns the operation one client
	// repeats, and a function releasing what start acquired.
	start func(conns int) (op func() error, stop func(), err error)
}

// refWindow is how long one reference measurement runs.
const refWindow = 100 * time.Millisecond

// computeRef fills a slice from a xorshift stream and sorts it: branchy
// scalar work on a few KiB, like the simulations behind characterisation
// and /v1/advise.
var computeRef = &hostRef{name: "compute", nominal: 12100, start: func(int) (func() error, func(), error) {
	return func() error {
		var xs [2048]float64 // on the stack: the reference must not depend on this process's heap
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x>>11) / (1 << 53)
		}
		slices.Sort(xs[:])
		return nil
	}, func() {}, nil
}}

// echoDoc is the body the HTTP reference posts and gets back decoded and
// re-encoded.
type echoDoc struct {
	System string      `json:"system"`
	Points []echoPoint `json:"points"`
}

type echoPoint struct {
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
	TimeS   float64 `json:"time_s"`
	EnergyJ float64 `json:"energy_j"`
}

// httpRef posts a 64-point JSON document over loopback keep-alive
// connections to a net/http server in this process, which decodes and
// re-encodes it: the kernel, net/http and encoding/json work every
// serving request pays.
var httpRef = &hostRef{name: "http", nominal: 6200, start: func(conns int) (func() error, func(), error) {
	doc := echoDoc{System: "xeon"}
	for i := 0; i < 64; i++ {
		doc.Points = append(doc.Points, echoPoint{Nodes: 1 + i%8, Cores: 1 + i%4, FreqGHz: 1.8, TimeS: float64(i) * 1.37, EnergyJ: float64(i) * 91.3})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var d echoDoc
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(d)
	})}
	served := make(chan struct{})
	go func() {
		srv.Serve(l) // returns http.ErrServerClosed once stop closes it
		close(served)
	}()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	url := "http://" + l.Addr().String() + "/"
	op := func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP reference: status %d", resp.StatusCode)
		}
		return nil
	}
	stop := func() {
		srv.Close()
		<-served
		tr.CloseIdleConnections()
	}
	return op, stop, nil
}}

// refMeter measures one hostRef.
type refMeter struct {
	ref   *hostRef
	conns int
	op    func() error
	stop  func()
}

func newRefMeter(ref *hostRef, conns int) (*refMeter, error) {
	op, stop, err := ref.start(conns)
	if err != nil {
		return nil, fmt.Errorf("starting the %s reference: %w", ref.name, err)
	}
	return &refMeter{ref: ref, conns: conns, op: op, stop: stop}, nil
}

// speed runs the reference on conns clients for refWindow and returns the
// host's speed relative to the nominal host: 1 there, 0.5 on a host half
// as fast.
func (m *refMeter) speed() (float64, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	done := 0
	start := time.Now()
	end := start.Add(refWindow)
	for c := 0; c < m.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			var err error
			for err == nil && time.Now().Before(end) {
				if err = m.op(); err == nil {
					n++
				}
			}
			mu.Lock()
			done += n
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(done) / time.Since(start).Seconds() / m.ref.nominal, nil
}
