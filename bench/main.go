// Command bench is the repository's benchmark: four workloads that take
// loops from text to schedules, kernels, simulated runs and served
// responses, each checked against an oracle, reporting end-to-end metrics
// from an untraced run and per-layer metrics from a traced one. From the
// repository root:
//
//	bash bench/run.sh                          # all workloads, one child process each
//	bash bench/run.sh -workload corpus-compile # one workload in this process
//	bash bench/run.sh -trace DIR               # traced; spans in DIR/<workload>.spans.json
//	bash bench/run.sh -json FILE               # also write every number to FILE
//	bash bench/run.sh -compare A.json... -- B.json...
//
// The flags also accept the double-dash spelling (--workload, --seed,
// --seconds, --trace). With -workload, the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics, or per-layer metrics when traced. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many cold processes set-up time is the median of:
// this one and setupRepeats-1 set-up-only children.
const setupRepeats = 3

// defaultSeconds is the measured time per workload run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     string // "0", "1", or a directory for span files
	jsonOut   string
	compare   bool
	setupOnly bool
	child     bool
}

func (o options) traced() bool { return o.trace != "0" }

// spanDir is where span files go, or "" when they are not kept.
func (o options) spanDir() string {
	if o.trace == "0" || o.trace == "1" {
		return ""
	}
	return o.trace
}

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload")
	fs.StringVar(&o.trace, "trace", "0", "0: untraced; 1: traced; DIR: traced, spans written to DIR")
	fs.StringVar(&o.jsonOut, "json", "", "also write every number to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare result files: -compare A.json... -- B.json...")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print its set-up time, exit (internal)")
	fs.BoolVar(&o.child, "child", false, "print the full report as the last line (internal)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.compare {
		os.Exit(runCompare(os.Stdout, fs.Args()))
	}
	if fs.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	rep, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if rep == nil { // -setup-only
		return
	}
	rep.writeLines(os.Stdout)
	if rep.LayerTable != "" {
		fmt.Print(rep.LayerTable)
	}
	if o.jsonOut != "" {
		if err := writeRunFile(o.jsonOut, []*report{rep}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	var line []byte
	if o.child {
		line, err = json.Marshal(rep)
	} else {
		line, err = rep.contractLine(o.traced())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.ok() {
		os.Exit(1)
	}
}

// runOne sets one workload up and measures it in this process. With
// -setup-only it prints the set-up time and returns a nil report.
func runOne(o options) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	r, err := w.setup(o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setup := sinceProcessStart().Seconds()
	defer r.close()
	if o.setupOnly {
		fmt.Printf("setup_s %v\n", setup)
		return nil, nil
	}
	rep := newReport(w.name, o.seed, o.seconds, runtime.NumCPU())
	if !o.traced() {
		setups := []float64{setup}
		for len(setups) < setupRepeats {
			s, err := childSetup(o)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		rep.set("setup_s", median(setups))
		for i, s := range setups {
			rep.detail(fmt.Sprintf("setup_s_run%d", i+1), s, "s")
		}
	}
	tr := r.run(rep, time.Duration(o.seconds)*time.Second, o.traced())
	if !o.traced() {
		rep.set("peak_rss_mb", r.peakRSSMB())
	}
	if dir := o.spanDir(); dir != "" && tr != nil {
		if err := tr.write(dir, w.name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// childSetup runs one set-up-only child and returns its set-up time.
func childSetup(o options) (float64, error) {
	out, err := runChild(o, io.Discard, "-setup-only")
	if err != nil {
		return 0, err
	}
	v, ok := strings.CutPrefix(strings.TrimSpace(out), "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up child printed %q", out)
	}
	return strconv.ParseFloat(v, 64)
}

// runChild runs this program on o.workload with extra flags, copying every
// line of its standard output but the last to echo, and returns the last
// line. The child's standard error passes through.
func runChild(o options, echo io.Writer, extra ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	args := append([]string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", o.trace}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(echo, last)
		}
		last = sc.Text()
	}
	var exitErr *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exitErr) && exitErr.ExitCode() == 1) {
		return "", fmt.Errorf("%s child: %w", o.workload, runErr)
	}
	return last, nil
}

// runAll runs every workload, each in a fresh child process so peak
// memory and GC state stay per workload, and returns the exit status.
func runAll(o options) int {
	var reps []*report
	status := 0
	for _, w := range workloads {
		wo := o
		wo.workload = w.name
		last, err := runChild(wo, os.Stdout, "-child")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		var rep report
		if err := json.Unmarshal([]byte(last), &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s child: bad report: %v\n", w.name, err)
			return 2
		}
		if !rep.ok() {
			status = 1
		}
		reps = append(reps, &rep)
	}
	if o.jsonOut != "" {
		if err := writeRunFile(o.jsonOut, reps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	for _, r := range reps {
		fmt.Printf("%s correct=%v attempted=%d failed=%d invalid=%d\n", r.Workload, r.correct(), r.Attempted, r.Failed, len(r.Invalid))
	}
	return status
}

// runFile is the -json format: reports keyed by workload.
type runFile struct {
	Workloads map[string]*report `json:"workloads"`
}

func writeRunFile(path string, reps []*report) error {
	f := runFile{Workloads: map[string]*report{}}
	for _, r := range reps {
		f.Workloads[r.Workload] = r
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
