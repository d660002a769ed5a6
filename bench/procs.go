package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles the two serving binaries of the checkout in the
// working directory into dir. The build is not timed.
func buildDaemons(ctx context.Context, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/hybridperfd", "./cmd/hybridperf-gw")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building daemons: %w", err)
	}
	return nil
}

// child is one daemon process started by the benchmark.
type child struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once cmd.Wait returned
}

// startChild launches bin with args, its output written to logPath and
// HYBRIDPERF_ENGINE and GOMAXPROCS removed from its environment, so it runs
// the shipped default engine on every CPU.
func startChild(name, url, bin, logPath string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "HYBRIDPERF_ENGINE=") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, url: url, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// stop ends the child with SIGTERM, escalating to SIGKILL after 5 s, and
// returns once it has exited.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
	c.log.Close()
}

// waitReady polls GET /readyz until it answers 200, failing if the child
// exits first or ctx ends.
func (c *child) waitReady(ctx context.Context, client *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before becoming ready (log: %s)", c.name, c.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", c.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// freePorts returns n distinct free loopback ports, scanning upwards from
// base. Fixed ports keep shard URLs — and with them the consistent-hash
// ownership of every model key — the same from run to run.
func freePorts(base, n int) ([]int, error) {
	var ports []int
	for p := base; p < base+200 && len(ports) < n; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			continue
		}
		l.Close()
		ports = append(ports, p)
	}
	if len(ports) < n {
		return nil, fmt.Errorf("no %d free ports in [%d,%d)", n, base, base+200)
	}
	return ports, nil
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading CPU time (is /proc mounted?): %w", err)
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a process.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS (is /proc mounted?): %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches a Prometheus text exposition and sums every sample of
// each family over its label sets.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	sums := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = line[:i]
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				rest = strings.TrimSpace(line[j+1:])
			}
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: bad sample %q", url, line)
		}
		sums[name] += v
	}
	return sums, sc.Err()
}
