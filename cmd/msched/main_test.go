package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const goodLoop = `
loop daxpy
profile 5 10000

xi = aadd xi@1, #8
x  = load xi
yi = aadd yi@1, #8
y  = load yi
t1 = fmul a, x
t2 = fadd y, t1
si = aadd si@1, #8
st: store si, t2
brtop
`

// A zero-distance dependence cycle: no II can satisfy it, so the bound
// computation reports an unschedulable recurrence.
const impossibleLoop = `
loop impossible
a: x = add p
b: y = add x
brtop
!mem b -> a dist 0
`

func runCase(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		stdin      string
		code       int
		wantErrSub string // substring required on stderr ("" = no check)
	}{
		{"success", nil, goodLoop, exitOK, ""},
		{"success slack", []string{"-algo", "slack"}, goodLoop, exitOK, ""},
		{"success besteffort", []string{"-besteffort"}, goodLoop, exitOK, ""},
		{"bad flag", []string{"-nosuchflag"}, goodLoop, exitUsage, "flag provided but not defined"},
		{"bad machine", []string{"-machine", "pdp11"}, goodLoop, exitUsage, "unknown machine"},
		{"bad machine file", []string{"-machine", "/no/such/file.mach"}, goodLoop, exitUsage, "unknown machine"},
		{"machine file ok", []string{"-machine", "../../testdata/machines/single_issue.mach"}, goodLoop, exitOK, ""},
		{"bad priority", []string{"-priority", "random"}, goodLoop, exitUsage, "unknown priority"},
		{"bad algo", []string{"-algo", "magic"}, goodLoop, exitUsage, "unknown algorithm"},
		{"bad delays", []string{"-delays", "none"}, goodLoop, exitUsage, "unknown delay model"},
		{"missing file", []string{"/no/such/file.loop"}, "", exitUsage, "no such file"},
		{"parse error", nil, "loop l\nx = warp p\nbrtop\n", exitParse, "line 2"},
		{"empty input", nil, "", exitParse, "missing 'loop NAME' header"},
		{"no schedule", nil, impossibleLoop, exitNoSched, ""},
		{"deadline", []string{"-timeout", "1ns"}, goodLoop, exitNoSched, "deadline"},
		{"besteffort deadline", []string{"-besteffort", "-timeout", "1ns"}, goodLoop, exitOK, "schedule produced by acyclic stage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCase(t, tc.args, tc.stdin)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			if tc.wantErrSub != "" && !strings.Contains(stderr, tc.wantErrSub) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErrSub)
			}
			if code == exitOK && !strings.Contains(stdout, "II=") {
				t.Errorf("successful run printed no schedule:\n%s", stdout)
			}
			if strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic:") {
				t.Errorf("stderr looks like a stack trace:\n%s", stderr)
			}
		})
	}
}

// TestDiagnosticsAreOneLine: every failure diagnostic is a single stderr
// line (scripts parse these).
func TestDiagnosticsAreOneLine(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stdin string
	}{
		{nil, "loop l\nx = warp p\nbrtop\n"},
		{[]string{"-machine", "pdp11"}, goodLoop},
		{nil, impossibleLoop},
	} {
		_, _, stderr := runCase(t, tc.args, tc.stdin)
		trimmed := strings.TrimRight(stderr, "\n")
		if trimmed == "" || strings.Contains(trimmed, "\n") {
			t.Errorf("diagnostic not exactly one line: %q", stderr)
		}
		if !strings.HasPrefix(trimmed, "msched: ") {
			t.Errorf("diagnostic missing msched: prefix: %q", stderr)
		}
	}
}

// TestBestEffortOnImpossibleLoop: with -besteffort the zero-distance cycle
// still fails (no stage can satisfy it), but a loop that merely cannot be
// pipelined within the default budget still produces output.
func TestBestEffortWarnsOnDegradation(t *testing.T) {
	code, stdout, stderr := runCase(t, []string{"-besteffort"}, goodLoop)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "II=") {
		t.Errorf("no schedule printed:\n%s", stdout)
	}
}

// TestBestEffortDeadlineIsDeterministic: an expired deadline under
// -besteffort must not race the degradation report — every run produces
// the degenerate schedule, flushes the one-line warning, and exits 0.
func TestBestEffortDeadlineIsDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		code, stdout, stderr := runCase(t, []string{"-besteffort", "-timeout", "1ns"}, goodLoop)
		if code != exitOK {
			t.Fatalf("run %d: exit = %d, want %d\nstderr: %s", i, code, exitOK, stderr)
		}
		if !strings.Contains(stdout, "II=") {
			t.Fatalf("run %d: no schedule printed:\n%s", i, stdout)
		}
		if !strings.Contains(stderr, "schedule produced by acyclic stage") {
			t.Fatalf("run %d: degradation report missing from stderr: %q", i, stderr)
		}
		warn := strings.TrimRight(stderr, "\n")
		if strings.Contains(warn, "\n") {
			t.Fatalf("run %d: degradation warning not one line: %q", i, stderr)
		}
	}
}

// burnLoopSource returns a loop whose compilation reliably takes much
// longer than the timeouts used in tests: a long fadd chain is cheap to
// schedule but expensive to lower (codegen is superlinear in the
// operation count), so wall-clock time passes without the deadline
// killing the compile itself.
func burnLoopSource(n int) string {
	var b strings.Builder
	b.WriteString("loop burn\nx0 = fadd a, a\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "x%d = fadd x%d, a\n", i, i-1)
	}
	b.WriteString("brtop\n")
	return b.String()
}

// TestTimeoutAppliesPerInput: -timeout is a per-input budget, not one
// deadline shared by the whole multi-file run. The first input burns far
// more wall-clock time than the timeout; the second must still compile
// with a full, fresh budget and produce exactly the output of a solo
// run. (Under the old shared-context behavior the second file inherited
// an expired deadline and failed — or, with -besteffort, spuriously
// degraded to the acyclic fallback.)
func TestTimeoutAppliesPerInput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-second compile")
	}
	_, soloOut, _ := runCase(t, nil, goodLoop)
	soloII := ""
	for _, line := range strings.Split(soloOut, "\n") {
		if strings.HasPrefix(line, "II=") {
			soloII = line
			break
		}
	}
	if soloII == "" {
		t.Fatalf("solo run printed no II line:\n%s", soloOut)
	}

	dir := t.TempDir()
	burnFile := filepath.Join(dir, "burn.loop")
	goodFile := filepath.Join(dir, "good.loop")
	if err := os.WriteFile(burnFile, []byte(burnLoopSource(800)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goodFile, []byte(goodLoop), 0o644); err != nil {
		t.Fatal(err)
	}

	// -besteffort keeps the run alive even if a slow machine lets the
	// deadline kill the burn loop's own scheduling phase; what matters is
	// the second file, which must come out non-degraded and identical to
	// the solo run.
	code, out, stderr := runCase(t, []string{"-besteffort", "-timeout", "500ms", burnFile, goodFile}, "")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitOK, stderr)
	}
	_, second, ok := strings.Cut(out, "== good.loop ==")
	if !ok {
		t.Fatalf("output missing second file section:\n%s", out)
	}
	gotII := ""
	for _, line := range strings.Split(second, "\n") {
		if strings.HasPrefix(line, "II=") {
			gotII = line
			break
		}
	}
	if gotII != soloII {
		t.Errorf("second input II line = %q, want solo run's %q (stale deadline leaked across inputs?)", gotII, soloII)
	}
	if strings.Contains(stderr, "loop daxpy") {
		t.Errorf("second input degraded despite per-input deadline:\nstderr: %s", stderr)
	}
}

// TestCacheAcrossFiles: compiling two structurally identical loops under
// different names with -cache schedules once and serves the second from
// the cache, with identical per-loop output.
func TestCacheAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	renamed := strings.Replace(goodLoop, "loop daxpy", "loop saxpy", 1)
	fileA := filepath.Join(dir, "a.loop")
	fileB := filepath.Join(dir, "b.loop")
	if err := os.WriteFile(fileA, []byte(goodLoop), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fileB, []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCase(t, []string{"-cache", fileA, fileB}, "")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"== a.loop ==", "== b.loop ==", "cache: 1 hits, 1 misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Both loops must report the same II line: the hit is the miss's
	// schedule.
	var iiLines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "II=") {
			iiLines = append(iiLines, line)
		}
	}
	if len(iiLines) != 2 || iiLines[0] != iiLines[1] {
		t.Errorf("II lines differ across cached duplicates: %q", iiLines)
	}
}

// TestBinary builds the real binary once and exercises it end to end,
// asserting process-level exit codes and that failures never print a
// stack trace.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	bin := filepath.Join(t.TempDir(), "msched")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	loopFile := filepath.Join(t.TempDir(), "daxpy.loop")
	if err := os.WriteFile(loopFile, []byte(goodLoop), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		args  []string
		stdin string
		code  int
	}{
		{"file ok", []string{loopFile}, "", exitOK},
		{"stdin ok", nil, goodLoop, exitOK},
		{"parse error", nil, "loop l\nx = warp p\nbrtop\n", exitParse},
		{"no schedule", nil, impossibleLoop, exitNoSched},
		{"usage", []string{"-machine", "vax"}, "", exitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdin = strings.NewReader(tc.stdin)
			var out, errb bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errb
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("exec: %v", err)
			}
			if code != tc.code {
				t.Fatalf("exit = %d, want %d\nstderr: %s", code, tc.code, errb.String())
			}
			if s := errb.String(); strings.Contains(s, "goroutine") || strings.Contains(s, "panic:") {
				t.Errorf("stack trace leaked to stderr:\n%s", s)
			}
		})
	}
}
