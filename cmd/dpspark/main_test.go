package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The goldens under testdata/ are the standard output of builds of
// cmd/dpspark, cmd/apsp and cmd/gesolve at commit e0ea403e203c, each
// command run in an empty working directory:
//
//	dpspark all -n 1024                                 > all.golden
//	dpspark fig6 -n 1024 -critpath                      > fig6_critpath.golden
//	dpspark headline -n 1024                            > headline.golden
//	dpspark explain                                     > explain.golden
//	dpspark apsp -n 2048 -critpath                      > apsp_critpath.golden
//	dpspark chaos -n 2048 -seed 7 -gcpause 1 -rackfail 1 > chaos.golden
//	dpspark sweep -n 1024                               > sweep.golden
//	{ dpspark durable -dir ckpt -stop 2; dpspark resume -dir ckpt; } > durable_resume.golden
//	dpspark durable -dir full                           > durable.golden
//	dpspark remote -dir rep                             > remote.golden
//	apsp -random 200 -p 0.1 -seed 7 -block 64 -query 3,150 > solve_fw.golden
//	apsp -grid 12x12 -seed 7 -block 32 -driver CB -kernel rec -rshared 2 -threads 2 -query 0,143 > solve_fw_grid.golden
//	gesolve -random 200 -seed 7 -block 64 -driver cb -kernel rec -rshared 2 -threads 2 > solve_ge.golden
//
// `dpspark solve -bench fw` is what cmd/apsp was and `-bench ge` what
// cmd/gesolve was, with -size in place of -random. chaos.golden and
// sweep.golden were regenerated with the command above when the
// throttled-resubmits column and the cluster's executor-memory figure
// left the output; nothing else in them moved. Every byte must match
// except the wall-clock readings in masks.
var goldenRows = []struct {
	golden string
	runs   [][]string // invocations sharing one working directory, stdout concatenated
	long   bool       // skipped under -short
	// coveredBy names a long row whose golden holds this row's bytes: when
	// that row runs, this one only checks that it does instead of running.
	coveredBy string
}{
	{"all", runs("all -n 1024"), true, ""}, // all runs fig9
	// fig6 prints no critical-path table, so -critpath leaves its bytes as
	// they are in all's fig6 section.
	{"fig6_critpath", runs("fig6 -n 1024 -critpath"), false, "all"},
	{"headline", runs("headline -n 1024"), false, ""},
	{"explain", runs("explain"), false, ""},
	{"apsp_critpath", runs("apsp -n 2048 -critpath"), false, ""},
	{"chaos", runs("chaos -n 2048 -seed 7 -gcpause 1 -rackfail 1"), false, ""},
	{"sweep", runs("sweep -n 1024"), true, ""},
	{"durable_resume", runs("durable -dir ckpt -stop 2", "resume -dir ckpt"), false, ""},
	{"durable", runs("durable -dir full"), false, ""},
	{"remote", runs("remote -dir rep"), false, ""},
	{"solve_fw", runs("solve -bench fw -size 200 -p 0.1 -seed 7 -block 64 -query 3,150"), false, ""},
	{"solve_fw_grid", runs("solve -bench fw -grid 12x12 -seed 7 -block 32 -driver CB -kernel rec -rshared 2 -threads 2 -query 0,143"), false, ""},
	{"solve_ge", runs("solve -bench ge -size 200 -seed 7 -block 64 -driver cb -kernel rec -rshared 2 -threads 2"), false, ""},
}

// masks hide the wall-clock readings, the only output that differs
// between two runs of the same command.
var masks = []struct {
	name string
	re   *regexp.Regexp
	with string
}{
	{"durable/resume spill wall", regexp.MustCompile(`spill wall \S+`), "spill wall <wall>"},
	{"solve wall", regexp.MustCompile(`(?m)^wall [^,]+,`), "wall <wall>,"},
}

func runs(lines ...string) [][]string {
	out := make([][]string, len(lines))
	for i, l := range lines {
		out[i] = strings.Fields(l)
	}
	return out
}

func mask(s string) string {
	for _, m := range masks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// invoke runs one dpspark invocation and returns its exit status and
// standard error; standard output goes to stdout.
func invoke(stdout io.Writer, args ...string) (int, string) {
	var stderr bytes.Buffer
	code := execute(nil, args, stdout, &stderr)
	return code, stderr.String()
}

// chdir moves the test into dir until it ends; commands that write files
// take relative paths so their output does not name a temporary directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

func TestGolden(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenRows {
		t.Run(row.golden, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("long row; skipped under -short")
			}
			want, err := os.ReadFile(filepath.Join(testdata, row.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if row.coveredBy != "" && !testing.Short() {
				cover, err := os.ReadFile(filepath.Join(testdata, row.coveredBy+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(cover, want) {
					t.Fatalf("%s.golden does not hold %s.golden", row.coveredBy, row.golden)
				}
				return
			}
			chdir(t, t.TempDir())
			var got bytes.Buffer
			for _, args := range row.runs {
				if code, stderr := invoke(&got, args...); code != 0 {
					t.Fatalf("dpspark %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
				}
			}
			if g, w := mask(got.String()), mask(string(want)); g != w {
				t.Errorf("output differs from %s.golden at %s", row.golden, firstDiff(g, w))
			}
		})
	}
}

// TestKernelsShape checks the kernels report, a real measurement, for its
// exit status and its lines only.
func TestKernelsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measures kernels; skipped under -short")
	}
	var out bytes.Buffer
	if code, stderr := invoke(&out, "kernels"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	s := out.String()
	for _, want := range []string{
		"single-tile kernel scaling on this machine",
		"-- fw (gep-min-plus) --", "-- ge (gaussian-elim) --",
		"crossover at t4:", "suggested split of",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if n := strings.Count(s, "per kind, serial: A="); n != 8 {
		t.Errorf("%d per-kind lines, want 8 (2 benches × 4 tile sizes):\n%s", n, s)
	}
}

// TestObservabilityOutputs runs the file and endpoint flags and checks what
// they write.
func TestObservabilityOutputs(t *testing.T) {
	chdir(t, t.TempDir())
	var out bytes.Buffer
	if code, stderr := invoke(&out, "apsp", "-n", "2048", "-critpath",
		"-trace", "t.json", "-metrics", "m.prom", "-flight", "f.jsonl", "-html", "r.html"); code != 0 {
		t.Fatalf("apsp: exit %d\n%s", code, stderr)
	}
	if code, stderr := invoke(&out, "table1", "-n", "1024", "-v", "-csv", "csv"); code != 0 {
		t.Fatalf("table1: exit %d\n%s", code, stderr)
	}
	if code, stderr := invoke(&out, "apsp", "-n", "1024", "-listen", "127.0.0.1:0"); code != 0 {
		t.Fatalf("apsp -listen: exit %d\n%s", code, stderr)
	}
	s := out.String()
	for _, want := range []string{
		"Chrome trace (", "written to t.json", "metrics written to m.prom",
		"flight-recorder events (", "written to f.jsonl", "HTML report written to r.html",
		"FW-APSP critical path (n=2048)", "observability endpoints on http://127.0.0.1:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile("t.json"); err != nil || json.Unmarshal(b, &trace) != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("t.json is not a trace with events (read error %v)", err)
	}
	if b, err := os.ReadFile("m.prom"); err != nil || !bytes.Contains(b, []byte("dpspark_shuffle_write_bytes_total")) {
		t.Errorf("m.prom lacks the shuffle counter (read error %v)", err)
	}
	b, err := os.ReadFile("f.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("f.jsonl line is not JSON: %q", line)
		}
	}
	if b, err := os.ReadFile("r.html"); err != nil || !bytes.Contains(b, []byte("<html")) {
		t.Errorf("r.html is not an HTML report (read error %v)", err)
	}
	if b, err := os.ReadFile(filepath.Join("csv", "table1.csv")); err != nil || len(b) == 0 {
		t.Errorf("csv/table1.csv missing or empty (read error %v)", err)
	}
}

// TestServeDrains starts the job service, runs one job through its HTTP
// API, then delivers SIGTERM: the service drains and exits 0.
func TestServeDrains(t *testing.T) {
	pr, pw := io.Pipe()
	sigs := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	var stderr bytes.Buffer
	go func() {
		code := execute(sigs, []string{"serve", "-listen", "127.0.0.1:0", "-max-jobs", "1"}, pw, &stderr)
		pw.Close()
		exited <- code
	}()
	addrRe := regexp.MustCompile(`job service on http://(\S+) `)
	addrs := make(chan string, 1)
	output := make(chan string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil && len(addrs) == 0 {
				addrs <- m[1]
			}
			lines = append(lines, sc.Text())
		}
		output <- strings.Join(lines, "\n")
	}()
	var base string
	select {
	case a := <-addrs:
		base = "http://" + a
	case code := <-exited:
		t.Fatalf("serve exited %d before listening\n%s", code, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not print its address")
	}

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"t","bench":"fw","driver":"im","n":64,"block":32,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, decode error %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(30 * time.Second); job.State != "done"; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30s", job.ID, job.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	sigs <- syscall.SIGTERM
	if code := <-exited; code != 0 {
		t.Fatalf("serve exited %d after SIGTERM\n%s", code, stderr.String())
	}
	if s := <-output; !strings.Contains(s, "drained: 1 done, 0 failed, 0 cancelled, 0 quarantined") {
		t.Errorf("serve output lacks the drain summary:\n%s", s)
	}
}
