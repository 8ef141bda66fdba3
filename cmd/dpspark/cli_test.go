package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"dpspark"
	"dpspark/internal/matrix"
)

// TestErrors runs invocations that must fail, with the status and the
// words of their message.
func TestErrors(t *testing.T) {
	chdir(t, t.TempDir())
	for _, tc := range []struct {
		args string
		code int
		want []string // in standard error
	}{
		{"", 2, []string{"usage: dpspark <command>", "table1", "solve", "serve", "signals:"}},
		{"nosuch", 2, []string{`unknown command "nosuch"`, "usage: dpspark <command>"}},
		{"table1 -seed 3", 2, []string{"flag provided but not defined: -seed", "usage: dpspark table1"}},
		{"explain -trace t.json", 2, []string{"flag provided but not defined: -trace"}},
		// Each command takes only the report flags it reads: -csv is for tables.
		{"chaos -csv out", 2, []string{"flag provided but not defined: -csv"}},
		{"apsp -v", 2, []string{"flag provided but not defined: -v"}},
		{"fig6 -csv out", 2, []string{"flag provided but not defined: -csv"}},
		{"solve -bench fw -size 8 -kernel-threads 2", 2, []string{"flag provided but not defined: -kernel-threads"}},
		{"durable", 1, []string{"durable: -dir is required"}},
		{"resume", 1, []string{"resume: -dir is required"}},
		{"serve", 1, []string{"serve: -listen is required"}},
		{"durable -dir d -bench lcs", 1, []string{`unknown -bench "lcs"`}},
		{"durable -dir d -driver xx", 1, []string{`unknown -driver "xx"`}},
		{"solve -bench fw -size 50 -query 0,99", 1, []string{"-query 0,99", "0..49"}},
		{"solve -bench fw -size 50 -query 0", 1, []string{`bad -query "0"`}},
		{"solve -bench fw", 1, []string{"-graph", "-dimacs", "-grid", "-size"}},
		{"solve -bench fw -size 50 -grid 5x5", 1, []string{"exactly one input"}},
		{"solve -bench fw -grid 30", 1, []string{`bad -grid "30"`, "-grid 30x30"}},
		// Flag parsing stops at the second number: the old example's form.
		{"solve -bench fw -grid 30 30 -query 0,899", 2, []string{`unexpected argument "30"`}},
		{"solve -bench ge", 1, []string{"-matrix", "-rhs", "-size"}},
		{"solve -bench ge -matrix a.bin", 1, []string{"-matrix", "-rhs", "-size"}},
		{"solve -bench ge -size 8 -query 0,1", 1, []string{"-query does not apply to -bench ge"}},
		{"solve -bench fw -size 8 -rhs b.txt", 1, []string{"-rhs does not apply to -bench fw"}},
		{"solve -bench fw -size 0", 1, []string{"-size 0"}},
		{"solve -bench fw -size 8 -kernel omp", 1, []string{`unknown -kernel "omp"`}},
		{"solve -bench fw -graph missing.txt", 1, []string{"missing.txt"}},
	} {
		var out bytes.Buffer
		code, stderr := invoke(&out, strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("dpspark %s: exit %d, want %d\n%s", tc.args, code, tc.code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("dpspark %s: stderr lacks %q:\n%s", tc.args, w, stderr)
			}
		}
		if code != 0 && strings.Contains(out.String(), "written") {
			t.Errorf("dpspark %s failed but reported a written file:\n%s", tc.args, out.String())
		}
	}
}

// TestHelp checks that every command prints its own flags on -h and exits 0.
func TestHelp(t *testing.T) {
	for _, c := range commands {
		var out bytes.Buffer
		code, stderr := invoke(&out, c.name, "-h")
		if code != 0 || !strings.Contains(stderr, "usage: dpspark "+c.name+" [flags]") || !strings.Contains(stderr, c.summary) {
			t.Errorf("%s -h: exit %d\n%s", c.name, code, stderr)
		}
	}
	_, stderr := invoke(io.Discard, "solve", "-h")
	for _, flag := range []string{"-graph", "-dimacs", "-grid", "-p ", "-matrix", "-rhs", "-out", "-query",
		"-kernel ", "-rshared", "-threads", "-cores", "-bench", "-driver", "-size", "-block", "-seed"} {
		if !strings.Contains(stderr, flag) {
			t.Errorf("solve -h lacks %s:\n%s", flag, stderr)
		}
	}
}

// TestSolveGrid runs the grid example of the usage text.
func TestSolveGrid(t *testing.T) {
	var out bytes.Buffer
	if code, stderr := invoke(&out, "solve", "-bench", "fw", "-grid", "30x30", "-query", "0,899"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if s := out.String(); !strings.Contains(s, "solved APSP: 900 vertices") || !strings.Contains(s, "shortest path 0→899") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

// TestSolveOut checks that -out writes the bits the facade computes.
func TestSolveOut(t *testing.T) {
	chdir(t, t.TempDir())
	cfg := dpspark.Config{BlockSize: 32, Driver: dpspark.IM}
	s := dpspark.NewSession(dpspark.Local(4))

	var out bytes.Buffer
	if code, stderr := invoke(&out, "solve", "-bench", "fw", "-size", "100", "-seed", "3", "-block", "32", "-out", "d.bin"); code != 0 {
		t.Fatalf("fw: exit %d\n%s", code, stderr)
	}
	want, _, err := s.APSP(dpspark.RandomGraph(100, 0.05, 1, 10, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFile("d.bin", matrix.ReadDense)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "fw -out", got.Data, want.Data)

	a, b := dpspark.RandomSystem(100, 3)
	x, _, err := s.SolveLinear(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same system from files through -matrix and -rhs.
	if err := writeFile("a.bin", func(w io.Writer) error { return matrix.WriteDense(w, a) }); err != nil {
		t.Fatal(err)
	}
	var rhs strings.Builder
	for _, bi := range b {
		rhs.WriteString(strconv.FormatFloat(bi, 'g', -1, 64) + "\n")
	}
	if err := os.WriteFile("b.txt", []byte(rhs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"solve", "-bench", "ge", "-size", "100", "-seed", "3", "-block", "32", "-out", "x.txt"},
		{"solve", "-bench", "ge", "-matrix", "a.bin", "-rhs", "b.txt", "-block", "32", "-out", "x.txt"},
	} {
		if code, stderr := invoke(&out, args...); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr)
		}
		got, err := readFile("x.txt", readVector)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, strings.Join(args, " "), got, x)
	}
	if !strings.Contains(out.String(), "distance matrix written to d.bin") || !strings.Contains(out.String(), "solution written to x.txt") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

// TestSolveOutWriteError checks that a failed write of -out, caught at
// Flush or Close, fails the command.
func TestSolveOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, bench := range []string{"fw", "ge"} {
		var out bytes.Buffer
		code, stderr := invoke(&out, "solve", "-bench", bench, "-size", "16", "-block", "8", "-out", "/dev/full")
		if code != 1 || !strings.Contains(stderr, "no space left") || strings.Contains(out.String(), "written") {
			t.Errorf("%s -out /dev/full: exit %d\nstdout:\n%s\nstderr:\n%s", bench, code, out.String(), stderr)
		}
	}
}

// TestSolveGraphFiles reads the two graph file formats.
func TestSolveGraphFiles(t *testing.T) {
	chdir(t, t.TempDir())
	files := map[string]string{
		"g.txt": "# three vertices\n3\n0 1 2\n1 2 3\n",
		"g.gr":  "c three vertices\np sp 3 2\na 1 2 2\na 2 3 3\n",
	}
	for name, body := range files {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"-graph", "g.txt"}, {"-dimacs", "g.gr"}} {
		var out bytes.Buffer
		code, stderr := invoke(&out, append([]string{"solve", "-bench", "fw", "-block", "2", "-query", "0,2"}, args...)...)
		if code != 0 || !strings.Contains(out.String(), "solved APSP: 3 vertices, 2 edges") ||
			!strings.Contains(out.String(), "shortest path 0→2 (length 5.000): [0 1 2]") {
			t.Errorf("%v: exit %d\n%s%s", args, code, out.String(), stderr)
		}
	}
	var out bytes.Buffer
	if code, _ := invoke(&out, "solve", "-bench", "fw", "-graph", "g.txt", "-block", "2", "-query", "2,0"); code != 0 || !strings.Contains(out.String(), "no path 2→0") {
		t.Errorf("unreachable query: exit %d\n%s", code, out.String())
	}
}

// TestSignals delivers a first signal to a running command: durable
// checkpoints and stops, and resume completes the run to the checksum of
// the uninterrupted one; a command with no driver loop ends at once with
// status 130 and dumps the -flight ring. The run it leaves behind is
// small, so it ends before the tests after this one get far.
func TestSignals(t *testing.T) {
	chdir(t, t.TempDir())
	sigs := make(chan os.Signal, 1)
	sigs <- syscall.SIGTERM
	var out bytes.Buffer
	var stderr bytes.Buffer
	if code := execute(sigs, []string{"durable", "-dir", "d"}, &out, &stderr); code != 0 {
		t.Fatalf("durable: exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(out.String(), "stop requested — checkpoint written") || !strings.Contains(stderr.String(), "checkpointing and stopping") {
		t.Fatalf("durable did not stop on the signal:\n%s%s", out.String(), stderr.String())
	}
	out.Reset()
	if code, stderr := invoke(&out, "resume", "-dir", "d"); code != 0 {
		t.Fatalf("resume: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(out.String(), "result checksum: e7675578ec207648 (n=512 b=128 fw IM)") {
		t.Errorf("resume after a signal:\n%s", out.String())
	}

	sigs <- syscall.SIGINT
	stderr.Reset()
	if code := execute(sigs, []string{"chaos", "-n", "1024", "-flight", "f.jsonl"}, io.Discard, &stderr); code != 130 {
		t.Fatalf("chaos: exit %d, want 130\n%s", code, stderr.String())
	}
	if s := stderr.String(); !strings.Contains(s, "interrupt — exiting") || !strings.Contains(s, "events written to f.jsonl") {
		t.Errorf("chaos on a signal:\n%s", s)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}
