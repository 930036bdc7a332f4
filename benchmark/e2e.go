package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// A run is many short rounds, each a phase A then a phase B, and
	// reports medians over the rounds: the host's speed shifts within
	// seconds, and a median over ten rounds forgets the odd slow one.
	rounds         = 10
	setupRuns      = 15              // server starts timed for setup_s; the last one serves the load
	warmupRequests = 2000            // unrecorded requests before round 1 …
	warmupTime     = 2 * time.Second // … or this long, whichever ends first
	// Share of a round spent in phase A (1 connection, latency); the rest
	// is phase B (2 connections, throughput). A gets more because the
	// tail percentile needs the samples.
	phaseAShare = 0.65
	// clockTick is the unit of utime and stime in /proc/<pid>/stat:
	// USER_HZ, 100 on every Linux port Go supports.
	clockTick = 10 * time.Millisecond
)

// server is one gatewayd process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	once sync.Once
	gone chan struct{} // closed once the process has been waited for
}

// startServer runs the gatewayd binary with default flags but for the
// three that say where to listen and what to serve, and returns once
// /readyz answers 200, with the time that took from exec.
func startServer(bin, macroDir, dataset string, logw io.Writer) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-macros", macroDir, "-dataset", dataset)
	cmd.Stdout, cmd.Stderr = logw, logw
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, gone: make(chan struct{})}
	// A benchmark that is told to stop takes its server with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		defer signal.Stop(sig)
		select {
		case got := <-sig:
			s.kill()
			fmt.Fprintf(os.Stderr, "benchmark: %v: server stopped\n", got)
			os.Exit(1)
		case <-s.gone:
		}
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("gatewayd on %s was not ready within 30 s (see the server log)", addr)
}

// kill stops the server and waits until it has gone; a second call does
// nothing.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		close(s.gone)
	})
}

// parseProcStat returns utime+stime from the content of
// /proc/<pid>/stat. The command name, field 2, may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, fmt.Errorf("only %d fields after the command name", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("utime %q or stime %q is not a number", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseVmHWM returns the peak resident set size in kB from the content
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

func (s *server) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// browser is one simulated browser on one keep-alive connection: it
// sends its next operation only when the page of the last has arrived
// (a closed loop).
type browser struct {
	base   string
	client *http.Client
	next   func() op
	check  *checker
	t      *tracer // spans the round trip when set and enabled
	page   bytes.Buffer
	sent   int
}

func newBrowser(base string, w *workload, space []request, initial map[int]int, seed int64, conn int, t *tracer) *browser {
	return &browser{
		base:   base,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		next:   w.generator(connRand(seed, conn), conn, space),
		check:  newChecker(w, initial),
		t:      t,
	}
}

// do performs the browser's next operation. It returns the operation,
// its latency, from sending the request to holding the whole page, the
// page's size, and the error that makes the operation a failed one.
func (b *browser) do() (op, time.Duration, int, error) {
	o := b.next()
	req, err := o.request().httpRequest(b.base)
	if err != nil {
		return o, 0, 0, err
	}
	b.sent++
	traced := b.t != nil && b.t.enabled()
	spanID := 0
	start := time.Now()
	if traced {
		id := fmt.Sprintf("bench-%07d", b.sent)
		req.Header.Set("X-Trace-Id", id)
		spanID = b.t.begin(spanHTTP, id)
	}
	status := 0
	resp, err := b.client.Do(req)
	if err == nil {
		status = resp.StatusCode
		b.page.Reset()
		_, err = b.page.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if traced {
		b.t.end(spanID, "", 0)
	}
	lat := time.Since(start)
	if err != nil {
		if o.ship > 0 {
			b.check.shipped[o.ship]++ // the server may have applied it
		}
		return o, lat, 0, err
	}
	return o, lat, b.page.Len(), b.check.check(o, status, b.page.Bytes())
}

// phaseResult is what a set of browsers did between two instants.
type phaseResult struct {
	latMS    []float64
	requests int
	bytes    int64
	failures []error
	wall     time.Duration
}

func (r *phaseResult) record(lat time.Duration, pageBytes int, err error) {
	r.requests++
	r.bytes += int64(pageBytes)
	r.latMS = append(r.latMS, float64(lat.Nanoseconds())/1e6)
	if err != nil {
		r.failures = append(r.failures, err)
	}
}

// runPhase lets every browser run until d has passed or, when limit > 0,
// until the browsers together have sent limit requests.
func runPhase(browsers []*browser, d time.Duration, limit int) phaseResult {
	results := make([]phaseResult, len(browsers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, b := range browsers {
		wg.Add(1)
		go func(b *browser, r *phaseResult) {
			defer wg.Done()
			for time.Since(start) < d && (limit == 0 || r.requests < limit/len(browsers)) {
				_, lat, n, err := b.do()
				r.record(lat, n, err)
			}
		}(b, &results[i])
	}
	wg.Wait()
	total := phaseResult{wall: time.Since(start)}
	for _, r := range results {
		total.latMS = append(total.latMS, r.latMS...)
		total.requests += r.requests
		total.bytes += r.bytes
		total.failures = append(total.failures, r.failures...)
	}
	return total
}

// runEndToEnd measures the end-to-end metrics of w against the real
// gatewayd binary.
func runEndToEnd(w *workload, cfg config) (*result, error) {
	macroDir := cfg.macroDir(w)
	st, err := newStack(w, macroDir, newTracer())
	if err != nil {
		return nil, err
	}
	space, initial, err := st.prepare(w)
	st.stop() // the oracle is complete; leave both cores to the run
	if err != nil {
		return nil, err
	}

	logPath := cfg.outPath("server_" + w.name + ".log")
	logw, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	var srv *server
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.kill()
		}
		slow := hostSlowdown()
		var took time.Duration
		if srv, took, err = startServer(cfg.gatewayd, macroDir, w.dataset, logw); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()/slow.wall)
	}
	defer srv.kill()

	browsers := []*browser{
		newBrowser(srv.base, w, space, initial, cfg.seed, 0, nil),
		newBrowser(srv.base, w, space, initial, cfg.seed, 1, nil),
	}
	res := newResult(w)
	res.add(runPhase(browsers[:1], warmupTime*3/4, warmupRequests*3/4))
	res.add(runPhase(browsers, warmupTime/4, warmupRequests/4))

	round := time.Duration(cfg.seconds * float64(time.Second) / rounds)
	phaseA := time.Duration(float64(round) * phaseAShare)
	// The host's speed is read before and after every phase, and what the
	// phase measured is corrected by the mean of the two (hostspeed.go).
	var p50s, rates, cpus, pooled, wallSlowdowns, cpuSlowdowns []float64
	before := hostSlowdown()
	measure := func(browsers []*browser, d time.Duration) (phaseResult, slowdown) {
		p := runPhase(browsers, d, 0)
		res.add(p)
		after := hostSlowdown()
		s := slowdown{wall: (before.wall + after.wall) / 2, cpu: (before.cpu + after.cpu) / 2}
		wallSlowdowns = append(wallSlowdowns, s.wall)
		cpuSlowdowns = append(cpuSlowdowns, s.cpu)
		before = after
		return p, s
	}
	for i := 0; i < rounds; i++ {
		cpuBefore, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		a, slowA := measure(browsers[:1], phaseA)
		b, slowB := measure(browsers, round-phaseA)
		cpuAfter, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		p50s = append(p50s, median(a.latMS)/slowA.wall)
		for _, ms := range a.latMS {
			pooled = append(pooled, ms/slowA.wall)
		}
		rates = append(rates, float64(b.requests)/b.wall.Seconds()*slowB.wall)
		cpus = append(cpus, float64((cpuAfter-cpuBefore).Microseconds())/1e3/float64(a.requests+b.requests)/((slowA.cpu+slowB.cpu)/2))
	}
	rssKB, err := srv.peakRSSKB()
	if err != nil {
		return nil, err
	}

	res.metric("setup_s", median(setups), setups)
	res.metric("lat_p50_ms", median(p50s), p50s)
	res.metric("req_per_s", median(rates), rates)
	res.metric("cpu_ms_per_req", median(cpus), cpus)
	res.metric("peak_rss_mb", float64(rssKB)/1024, nil)
	res.note("phase-A p99 %.4f ms over %d pooled samples, %d of them beyond it (not a metric: see README.md)", percentile(pooled, 99), len(pooled), len(pooled)-rank(99, len(pooled)))
	res.note("host slowdown around each phase, which the times above are corrected by: by the clock median %.3f, %.3f", median(wallSlowdowns), wallSlowdowns)
	res.note("… and by CPU time: median %.3f, %.3f", median(cpuSlowdowns), cpuSlowdowns)

	srv.kill() // its log is complete
	if logged, err := os.ReadFile(logPath); err != nil {
		return nil, err
	} else if bytes.Contains(logged, []byte("panic")) {
		res.fail(fmt.Errorf("the server logged a panic, see %s", logPath))
	}
	return res, nil
}
