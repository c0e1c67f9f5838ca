package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// processClock is read once this package initializes; startOffset adds the
// time the process spent before that (runtime start, imported packages'
// init), read from /proc to clock-tick resolution.
var (
	processClock = time.Now()
	startOffset  = procAge()
)

// sinceProcessStart is the time since the process started.
func sinceProcessStart() time.Duration { return time.Since(processClock) + startOffset }

// procAge is the process's age according to /proc: uptime minus the
// process start time, both in seconds since boot. Zero where /proc is not
// available.
func procAge() time.Duration {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	up, err := os.ReadFile("/proc/uptime")
	if err != nil {
		return 0
	}
	// Field 22 is starttime in clock ticks; the command name in field 2
	// may hold spaces, so count from the closing parenthesis.
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	const startField = 22 - 3 // fields after ")" start at field 3
	if len(fields) <= startField {
		return 0
	}
	ticks, err1 := strconv.ParseFloat(fields[startField], 64)
	upFields := strings.Fields(string(up))
	if err1 != nil || len(upFields) == 0 {
		return 0
	}
	uptime, err := strconv.ParseFloat(upFields[0], 64)
	if err != nil {
		return 0
	}
	const clockTicks = 100 // USER_HZ on every Linux ABI Go supports
	age := uptime - ticks/clockTicks
	if age < 0 {
		return 0
	}
	return time.Duration(age * float64(time.Second))
}

// peakRSSMB is the process's VmHWM in MB, or 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeDelta is Go runtime activity: cumulative, or over a phase.
type runtimeDelta struct {
	AllocBytes, GCCPU, TotalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{get(0), get(1), get(2)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.AllocBytes - b.AllocBytes, a.GCCPU - b.GCCPU, a.TotalCPU - b.TotalCPU}
}

// setRuntime records allocation per item and the GC's share of CPU.
func setRuntime(rep *report, rt runtimeDelta, items int64) {
	if items > 0 {
		rep.set("runtime.alloc_kb_per_item", rt.AllocBytes/1024/float64(items))
	} else {
		rep.set("runtime.alloc_kb_per_item", 0)
	}
	if rt.TotalCPU > 0 {
		rep.set("runtime.gc_cpu_pct", 100*rt.GCCPU/rt.TotalCPU)
	} else {
		rep.set("runtime.gc_cpu_pct", 0)
	}
}
