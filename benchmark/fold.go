package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Profile fold: the simulator's own version of the paper's Fig. 7 split.
// Every CPU sample is charged to the module of its innermost frame in this
// repository (clusterbooster/internal/<module>, or "clusterbooster" for the
// root package); the part of that whose leaf frame is in the Go runtime
// (channel handoff, map lookup, memmove, stack growth) is also reported on
// its own. Samples with no repository frame are garbage collection or other
// runtime and benchmark work; so are samples with no stack at all.

const repoPrefix = "clusterbooster"

// modules are the simulator's layers the fold always reports, bottom up;
// a sample in any other repository package gets a bucket of its own.
var modules = []string{
	"vclock", "engine", "fabric", "psmpi", "xpic", "sched", "ioev", "beegfs",
	"nvme", "sion", "scr", "resilience", "ioexp", "sweep", "exp",
}

// gcRoots are frames that mark a stack with no repository frame as
// garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.gcAssistAlloc",
}

// profileFold is a folded CPU profile. All values are in milliseconds, the
// unit the fold asks pprof to print, so bucket sums are exact.
type profileFold struct {
	TotalMs int64
	// CPUMs maps a module, "gc" or "other" to the samples charged to it.
	CPUMs map[string]int64
	// RuntimeMs maps a module to the subset of its samples whose leaf frame
	// is in the Go runtime.
	RuntimeMs map[string]int64
}

var totalRe = regexp.MustCompile(`Total samples = ([0-9.]+)ms`)

// parseTraces folds the text of `go tool pprof -traces -unit=ms`.
func parseTraces(r io.Reader) (profileFold, error) {
	f := profileFold{TotalMs: -1, CPUMs: map[string]int64{}, RuntimeMs: map[string]int64{}}
	var (
		value int64
		stack []string
		open  bool
	)
	flush := func() {
		if open && len(stack) > 0 {
			f.add(value, stack)
		}
		stack, open = nil, false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			continue
		}
		if !open {
			if m := totalRe.FindStringSubmatch(line); m != nil {
				v, err := parseMs(m[1])
				if err != nil {
					return f, err
				}
				f.TotalMs = v
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if !strings.HasSuffix(fields[0], "ms") || len(fields) < 2 {
				return f, fmt.Errorf("fold: sample line without a value: %q", line)
			}
			v, err := parseMs(strings.TrimSuffix(fields[0], "ms"))
			if err != nil {
				return f, err
			}
			value, fields = v, fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return f, fmt.Errorf("fold: read traces: %w", err)
	}
	flush()
	if f.TotalMs < 0 {
		return f, fmt.Errorf("fold: no \"Total samples\" header")
	}
	// pprof does not print samples the profiler could not unwind; they are
	// what the printed samples leave of the total.
	sum := f.sum()
	if sum > f.TotalMs {
		return f, fmt.Errorf("fold: samples sum to %dms, more than the profile total %dms", sum, f.TotalMs)
	}
	f.CPUMs["other"] += f.TotalMs - sum
	return f, nil
}

func parseMs(s string) (int64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("fold: bad value %q: %w", s, err)
	}
	return int64(v + 0.5), nil
}

// add charges one sample stack, leaf first.
func (f *profileFold) add(ms int64, stack []string) {
	for _, fn := range stack {
		if mod, ok := repoModule(fn); ok {
			f.CPUMs[mod] += ms
			if isRuntime(stack[0]) {
				f.RuntimeMs[mod] += ms
			}
			return
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root || strings.HasPrefix(fn, root+".") {
				f.CPUMs["gc"] += ms
				return
			}
		}
	}
	f.CPUMs["other"] += ms
}

func (f profileFold) sum() int64 {
	var s int64
	for _, v := range f.CPUMs {
		s += v
	}
	return s
}

// repoModule names the module of a repository frame.
func repoModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, ".") {
		return repoPrefix, true
	}
	rest, ok = strings.CutPrefix(rest, "/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// metrics renders the fold as per-pass seconds: <module>.cpu_s,
// <module>.runtime_cpu_s, go.gc_cpu_s and go.other_cpu_s.
func (f profileFold) metrics(passes int) map[string]float64 {
	per := func(ms int64) float64 { return float64(ms) / 1e3 / float64(passes) }
	out := map[string]float64{"go.gc_cpu_s": per(f.CPUMs["gc"]), "go.other_cpu_s": per(f.CPUMs["other"])}
	for _, mod := range modules {
		out[mod+".cpu_s"], out[mod+".runtime_cpu_s"] = 0, 0
	}
	for mod, ms := range f.CPUMs {
		if mod != "gc" && mod != "other" {
			out[mod+".cpu_s"] = per(ms)
			out[mod+".runtime_cpu_s"] = per(f.RuntimeMs[mod])
		}
	}
	return out
}

// foldProfiles merges CPU profiles into merged and folds it.
func foldProfiles(merged string, parts []string) (profileFold, error) {
	args := append([]string{"tool", "pprof", "-proto", "-output=" + merged}, parts...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return profileFold{}, fmt.Errorf("merge profiles: %v: %s", err, out)
	}
	for _, p := range parts {
		_ = os.Remove(p) // the merged profile holds every sample
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", merged)
	cmd.Stderr = io.Discard
	text, err := cmd.Output()
	if err != nil {
		return profileFold{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(text)))
}
