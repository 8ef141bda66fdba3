package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve workloads run the real `dpspark serve` binary as a child
// process; the harness is its only client.

// server is one serve child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	started time.Time

	once        sync.Once
	cpuS, rssMB float64
}

// startServer picks a free port and starts `dpspark serve` on it, with
// the journal directory if one is given. Standard output and error go to
// a log file in the scratch directory. The child is killed when the
// harness exits, however it exits.
func startServer(e *env, journal string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := []string{"serve", "-listen", addr, "-max-jobs", "2", "-max-queue", "16"}
	if journal != "" {
		args = append(args, "-journal", journal)
	}
	logPath := filepath.Join(e.tmp, "serve.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e.onExit(s.kill)
	return s, nil
}

// kill sends SIGKILL, waits for the child to end and records its CPU and
// peak memory. It may be called more than once.
func (s *server) kill() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // an error means it has already exited
		_ = s.cmd.Wait()         // "signal: killed" is the expected outcome
		s.cpuS, s.rssMB = childUsage(s.cmd.ProcessState)
	})
}

// waitReady polls /readyz every millisecond and returns the time from
// process start to the first 200, and the time to the first HTTP answer
// of any status (the listener is bound before the journal is replayed).
func (s *server) waitReady(c *http.Client, timeout time.Duration) (ready, listening time.Duration, err error) {
	for time.Since(s.started) < timeout {
		resp, gerr := c.Get(s.base + "/readyz")
		if gerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if listening == 0 {
				listening = time.Since(s.started)
			}
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), listening, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, 0, fmt.Errorf("server not ready after %v (log: %s)", timeout, s.logPath)
}

// jobStatus is the part of serve.JobStatus the client reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Checksum  string `json:"checksum"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
	Error     string `json:"error"`
}

func (st jobStatus) terminal() bool { return st.State != "queued" && st.State != "running" }

// jobRecord is what the client saw of one job.
type jobRecord struct {
	spec   jobSpec
	status jobStatus
	// Client clock: POST sent, POST answered, terminal state seen.
	sent, admitted, seen time.Time
	// statusGetS is the round trip of the job's last status poll.
	statusGetS float64
	rejected   bool
	err        error
}

func (r jobRecord) ok() bool { return r.err == nil && !r.rejected && r.status.State == "done" }

// serverTimes parses the server's own stamps of the job.
func (r jobRecord) serverTimes() (submitted, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	submitted, err1 = time.Parse(time.RFC3339Nano, r.status.Submitted)
	started, err2 = time.Parse(time.RFC3339Nano, r.status.Started)
	finished, err3 = time.Parse(time.RFC3339Nano, r.status.Finished)
	return submitted, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// pollInterval is how long a client sleeps between status polls; a
// result is seen up to this much after the server has it.
const pollInterval = 2 * time.Millisecond

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 2 * conns, MaxIdleConnsPerHost: 2 * conns},
	}
}

// runJob submits one job and polls its status until it is terminal.
func runJob(c *http.Client, base string, spec jobSpec) (rec jobRecord) {
	rec.spec = spec
	body, _ := json.Marshal(spec) // a struct of strings and ints
	rec.sent = time.Now()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.admitted = time.Now()
	switch {
	case err != nil:
		rec.err = err
		return rec
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.rejected = true
		return rec
	case resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
		return rec
	}
	if err := json.Unmarshal(data, &rec.status); err != nil {
		rec.err = err
		return rec
	}
	url := base + "/jobs/" + rec.status.ID
	for !rec.status.terminal() {
		time.Sleep(pollInterval)
		t0 := time.Now()
		resp, err := c.Get(url)
		if err != nil {
			rec.err = err
			return rec
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.statusGetS = time.Since(t0).Seconds()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		if err == nil {
			err = json.Unmarshal(data, &rec.status)
		}
		if err != nil {
			rec.err = err
			return rec
		}
	}
	rec.seen = time.Now()
	return rec
}

// closedLoop runs the jobs in order on the given number of clients, each
// submitting its next job only after it has seen the previous one's
// result. It stops when the jobs run out or, with a deadline, at the
// first job that would start after it. It returns the records and the
// wall time from the first submission to the last result.
func closedLoop(c *http.Client, base string, jobs []jobSpec, clients int, deadline time.Time) ([]jobRecord, float64) {
	var next atomic.Int64
	recs := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				recs[k] = append(recs[k], runJob(c, base, jobs[i]))
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []jobRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, elapsed
}

// checkJobs counts the jobs that were refused, errored or did not end
// `done`, and those whose checksum differs from an equal spec's.
func checkJobs(recs []jobRecord, sums map[string]string) (failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, r := range recs {
		switch {
		case r.rejected:
			fail(fmt.Errorf("job %s refused with 429", r.spec.key()))
		case r.err != nil:
			fail(r.err)
		case r.status.State != "done":
			fail(fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error))
		default:
			if prev, ok := sums[r.spec.key()]; ok && prev != r.status.Checksum {
				fail(fmt.Errorf("job %s: checksum %s differs from %s of an equal spec", r.status.ID, r.status.Checksum, prev))
			}
			sums[r.spec.key()] = r.status.Checksum
		}
	}
	return failed, first
}

// finishLoad checks the jobs of a finished load phase, kills the server
// and, if any job failed, reports the first failure and keeps the server
// log. It returns the number of failed jobs.
func (s *server) finishLoad(e *env, recs []jobRecord) int {
	failed, first := checkJobs(recs, map[string]string{})
	s.kill()
	if first != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d jobs failed, first: %v\n", e.spec.Name, failed, len(recs), first)
		e.keep(s.logPath)
	}
	return failed
}

const (
	serveWarmup = 100 // jobs run and discarded before the measured phase
	// serveMaxRate bounds how many jobs a second of load can consume, to
	// size the pre-generated mix.
	serveMaxRate = 1000
)

// bootServer starts a server, waits for readiness and runs the warm-up
// jobs: the serve workloads' set-up.
func bootServer(e *env, c *http.Client, journal string, warm []jobSpec) (*server, error) {
	s, err := startServer(e, journal)
	if err != nil {
		return nil, err
	}
	if _, _, err := s.waitReady(c, 30*time.Second); err != nil {
		return nil, err
	}
	recs, _ := closedLoop(c, s.base, warm, e.procs, time.Time{})
	if failed, err := checkJobs(recs, map[string]string{}); failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed: %w", failed, len(recs), err)
	}
	return s, nil
}

// --- serve_mix ---

type serveMix struct{}

func (serveMix) measure(e *env) (*measured, error) {
	c := newHTTPClient(e.procs)
	jobs := serveMixJobs(e.seed, serveWarmup+int(e.seconds*serveMaxRate))
	journal := filepath.Join(e.tmp, "journal")
	var s *server
	var setupS []float64
	for i := 0; i < e.spec.SetupReps; i++ {
		if s != nil {
			s.kill()
			if err := os.RemoveAll(journal); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = bootServer(e, c, journal, jobs[:serveWarmup]); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	recs, elapsed := closedLoop(c, s.base, jobs[serveWarmup:], e.procs, time.Now().Add(time.Duration(e.seconds*float64(time.Second))))
	failed := s.finishLoad(e, recs)
	m := &measured{
		elapsed: elapsed, cpuS: s.cpuS, cpuOps: serveWarmup + len(recs),
		peakRSSMB: s.rssMB, setupS: setupS, failed: failed,
	}
	for _, r := range recs {
		if r.ok() {
			m.opSeconds = append(m.opSeconds, r.seen.Sub(r.sent).Seconds())
		}
	}
	return m, nil
}

func (serveMix) traced(e *env) (map[string]float64, int, int, error) {
	c := newHTTPClient(e.procs + 1)
	third := time.Duration(e.seconds / 3 * float64(time.Second))
	jobs := serveMixJobs(e.seed, serveWarmup+int(e.seconds*serveMaxRate))
	journal := filepath.Join(e.tmp, "journal")
	m := map[string]float64{}

	// With the journal: per-job spans, the program's kernel series and
	// the cost of scraping /metrics under load.
	s, err := bootServer(e, c, journal, jobs[:serveWarmup])
	if err != nil {
		return nil, 0, 0, err
	}
	if fi, err := os.Stat(filepath.Join(journal, "journal.log")); err == nil {
		// Taken after the warm-up, before the first compaction (4096
		// records) rewrites the file.
		m["serve.journal_bytes_per_job"] = float64(fi.Size()) / serveWarmup
	}
	before := scrapeKernels(c, s.base)
	stop := make(chan struct{})
	var scrapes []float64
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t0 := time.Now()
				if _, err := httpGet(c, s.base+"/metrics"); err == nil {
					scrapes = append(scrapes, time.Since(t0).Seconds())
				}
			}
		}
	}()
	recs, _ := closedLoop(c, s.base, jobs[serveWarmup:], e.procs, time.Now().Add(third))
	close(stop)
	scraper.Wait()
	after := scrapeKernels(c, s.base)
	failed := s.finishLoad(e, recs)
	attempted := len(recs)
	tr := &tracer{}
	serveLayer(m, tr, recs, before, after)
	m["obs.metrics_scrape_ms_p50"] = 1e3 * median(scrapes)

	// Without the journal: the same mix on a server that never fsyncs.
	s2, err := bootServer(e, c, "", jobs[:serveWarmup])
	if err != nil {
		return nil, 0, 0, err
	}
	recs2, elapsed2 := closedLoop(c, s2.base, jobs[serveWarmup:], e.procs, time.Now().Add(third))
	failed2 := s2.finishLoad(e, recs2)
	attempted += len(recs2)
	failed += failed2
	m["serve.jobs_per_s_nojournal"] = float64(len(recs2)-failed2) / elapsed2

	if err := probeSubmit(m, e.tmp); err != nil {
		return nil, 0, 0, err
	}
	probeFrameAppend(m)
	if m["store.fsync_ms_p50"], err = probeFsync(e.tmp); err != nil {
		return nil, 0, 0, err
	}

	fmt.Fprintf(e.log, "traced %d jobs with the journal, %d without\n", len(recs), len(recs2))
	return m, attempted, failed, tr.finish(e, "job")
}

// serveLayer turns the job records into spans and the serve.* metrics.
// Spans tile each job's time as the client saw it (admission, queue, run,
// observe); the metrics use the server's own stamps, which carry no poll
// quantisation.
func serveLayer(m map[string]float64, tr *tracer, recs []jobRecord, before, after kernelTotals) {
	var admission, queue, run, serverTTR, ttr, gets []float64
	var rejected int
	var runTotal float64
	for id, r := range recs {
		if r.rejected {
			rejected++
		}
		if !r.ok() {
			continue
		}
		submitted, started, finished, ok := r.serverTimes()
		if !ok {
			continue
		}
		admission = append(admission, r.admitted.Sub(r.sent).Seconds())
		queue = append(queue, started.Sub(submitted).Seconds())
		run = append(run, finished.Sub(started).Seconds())
		runTotal += finished.Sub(started).Seconds()
		serverTTR = append(serverTTR, finished.Sub(submitted).Seconds())
		ttr = append(ttr, r.seen.Sub(r.sent).Seconds())
		if r.statusGetS > 0 {
			gets = append(gets, r.statusGetS)
		}

		root := tr.add("job", "harness", id, -1, r.sent, r.seen)
		clamp := func(t time.Time) time.Time { // keep the tiling inside the job and in order
			if t.Before(r.admitted) {
				return r.admitted
			}
			if t.After(r.seen) {
				return r.seen
			}
			return t
		}
		tr.add("admission", "serve", id, root, r.sent, r.admitted)
		tr.add("queue", "serve", id, root, r.admitted, clamp(started))
		tr.add("run", "serve", id, root, clamp(started), clamp(finished))
		tr.add("observe", "harness", id, root, clamp(finished), r.seen)
	}
	ms := func(name string, v []float64, p float64) { m[name] = 1e3 * percentile(v, p) }
	ms("serve.admission_ms_p50", admission, 50)
	ms("serve.admission_ms_p99", admission, 99)
	ms("serve.queue_wait_ms_p50", queue, 50)
	ms("serve.queue_wait_ms_p99", queue, 99)
	ms("serve.run_ms_p50", run, 50)
	ms("serve.run_ms_p99", run, 99)
	ms("serve.server_time_to_result_ms_p50", serverTTR, 50)
	ms("serve.time_to_result_ms_p99", ttr, 99)
	ms("serve.status_get_ms_p50", gets, 50)
	if len(recs) > 0 {
		m["serve.rejected_frac"] = float64(rejected) / float64(len(recs))
	}
	if n := float64(len(run)); n > 0 {
		var kernelWall float64
		for _, k := range []string{"A", "B", "C", "D"} {
			m["kernels.calls_"+k] = (after.calls[k] - before.calls[k]) / n
			m["kernels.wall_s_"+k] = (after.wall[k] - before.wall[k]) / n
			kernelWall += after.wall[k] - before.wall[k]
		}
		if runTotal > 0 {
			// An estimate from outside: kernel wall over the jobs' run time.
			m["kernels.est_share"] = kernelWall / runTotal
		}
	}
}

func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, err
}

// scrapeKernels reads the server's kernel series from /metrics.
func scrapeKernels(c *http.Client, base string) kernelTotals {
	data, _ := httpGet(c, base+"/metrics") // no answer reads as no series
	return kernelSeriesFrom(parseProm(string(data)))
}

// --- serve_restart ---

type serveRestart struct{}

const (
	restartJournalJobs = 1000 // finished jobs in the journal that is replayed
	restartRefetch     = 64   // results fetched again after every restart
)

// restartState is a journal of finished jobs, the server currently
// running on it and the results it served before the first kill.
type restartState struct {
	journal string
	s       *server
	ids     []string
	results map[string][]byte
}

// buildJournal is serve_restart's set-up: run the mix to completion on a
// journaled server and keep the results of 64 evenly spaced jobs.
func buildJournal(e *env, c *http.Client) (*restartState, error) {
	st := &restartState{journal: filepath.Join(e.tmp, "journal"), results: map[string][]byte{}}
	jobs := serveMixJobs(e.seed, restartJournalJobs)
	s, err := startServer(e, st.journal)
	if err != nil {
		return nil, err
	}
	st.s = s
	if _, _, err := s.waitReady(c, 30*time.Second); err != nil {
		return nil, err
	}
	recs, _ := closedLoop(c, s.base, jobs, e.procs, time.Time{})
	if failed, err := checkJobs(recs, map[string]string{}); failed > 0 {
		e.keep(s.logPath)
		return nil, fmt.Errorf("journal build: %d of %d jobs failed: %w", failed, len(recs), err)
	}
	for i := 0; i < restartRefetch; i++ {
		id := recs[i*len(recs)/restartRefetch].status.ID
		body, err := httpGet(c, s.base+"/jobs/"+id+"/result")
		if err != nil {
			return nil, err
		}
		st.ids = append(st.ids, id)
		st.results[id] = body
	}
	return st, nil
}

// restart kills the server with SIGKILL, starts a new one on the same
// journal and waits for it to be ready. It returns the seconds from
// process start to /readyz 200, then fetches the kept results again and
// compares them byte for byte.
func (st *restartState) restart(e *env, c *http.Client, tr *tracer, id int) (readyS float64, err error) {
	st.s.kill()
	root := tr.begin("restart", "harness", id, -1)
	defer tr.end(root)
	s, err := startServer(e, st.journal)
	if err != nil {
		return 0, err
	}
	st.s = s
	ready, listening, err := s.waitReady(c, 60*time.Second)
	if err != nil {
		return 0, err
	}
	tr.add("boot", "go", id, root, s.started, s.started.Add(listening))
	tr.add("replay", "serve", id, root, s.started.Add(listening), s.started.Add(ready))
	sp := tr.begin("refetch", "serve", id, root)
	defer tr.end(sp)
	for _, jid := range st.ids {
		body, err := httpGet(c, s.base+"/jobs/"+jid+"/result")
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(body, st.results[jid]) {
			return 0, fmt.Errorf("result of %s after restart differs: %q, before %q", jid, body, st.results[jid])
		}
	}
	return ready.Seconds(), nil
}

// loop restarts for the given seconds (at least twice).
func (st *restartState) loop(e *env, c *http.Client, tr *tracer, seconds float64) (durs []float64, failed int, cpuS, rssMB float64) {
	count := func(s *server) { // s has been killed: its usage is final
		cpuS += s.cpuS
		rssMB = math.Max(rssMB, s.rssMB)
	}
	start := time.Now()
	for id := 0; time.Since(start).Seconds() < seconds || id < 2; id++ {
		prev := st.s
		d, err := st.restart(e, c, tr, id)
		if id > 0 { // the first kill ends the server that built the journal
			count(prev)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: serve_restart %d: %v\n", id, err)
			e.keep(st.s.logPath)
			continue
		}
		durs = append(durs, d)
	}
	st.s.kill()
	count(st.s)
	return durs, failed, cpuS, rssMB
}

func (serveRestart) measure(e *env) (*measured, error) {
	c := newHTTPClient(e.procs)
	t0 := time.Now()
	st, err := buildJournal(e, c)
	if err != nil {
		return nil, err
	}
	setupS := []float64{time.Since(t0).Seconds()}
	t0 = time.Now()
	durs, failed, cpuS, rssMB := st.loop(e, c, nil, e.seconds)
	return &measured{
		opSeconds: durs, elapsed: time.Since(t0).Seconds(),
		cpuS: cpuS, cpuOps: len(durs) + failed, peakRSSMB: rssMB,
		setupS: setupS, failed: failed,
	}, nil
}

func (serveRestart) traced(e *env) (map[string]float64, int, int, error) {
	c := newHTTPClient(e.procs)
	st, err := buildJournal(e, c)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := &tracer{}
	durs, failed, _, _ := st.loop(e, c, tr, e.seconds/3)
	m := map[string]float64{}
	if len(durs) > 0 {
		m["serve.recover_jobs_per_s"] = restartJournalJobs / median(durs)
	}
	if fi, err := os.Stat(filepath.Join(st.journal, "journal.log")); err == nil {
		// After a recovery the journal is the compacted snapshot.
		m["serve.journal_bytes_per_job"] = float64(fi.Size()) / restartJournalJobs
	}
	if err := probeFrameRead(m); err != nil {
		return nil, 0, 0, err
	}
	if m["store.fsync_ms_p50"], err = probeFsync(e.tmp); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(e.log, "traced %d restarts on a journal of %d jobs\n", len(durs), restartJournalJobs)
	return m, len(durs) + failed, failed, tr.finish(e, "restart")
}
