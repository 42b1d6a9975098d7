package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupProbes is the number of set-up-only children a run spawns besides
// its samples, so that setup_s is a median even when one sample fills the
// run.
const setupProbes = 5

// sample is one child process as the parent measured it.
type sample struct {
	setupS float64 // spawn to ready line
	rssMiB float64 // the child's peak resident set
	cpuS   float64 // the child's user+system time
	res    sampleResult
}

// spawn runs one child to completion, one at a time: nothing else the
// benchmark starts runs beside it.
func spawn(spec childSpec) (sample, error) {
	var s sample
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return s, err
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	s.setupS = time.Since(t0).Seconds()
	var rest []byte
	if err == nil {
		rest, err = io.ReadAll(r)
	}
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return s, fmt.Errorf("child: read output: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return s, fmt.Errorf("child %v: %w", spec.Experiments, err)
	}
	if strings.TrimSpace(line) != readyLine {
		return s, fmt.Errorf("child: expected %q, got %q", readyLine, line)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	s.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	if spec.SetupOnly {
		return s, nil
	}
	lines := strings.Split(strings.TrimSpace(string(rest)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return s, fmt.Errorf("child: result line: %w", err)
	}
	return s, nil
}

// runConfig is one benchmark run: one workload, sampled for a fixed time.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	root     string // module root holding the goldens
	// traceDir, when set, makes the run a traced run: its first sample is
	// untraced, for the counters and the tracing overhead, and every later
	// one is traced. It reports the per-layer metrics and writes the trace,
	// the merged CPU profile and every per-layer metric there.
	traceDir string
}

// runOutput is what a run measured.
type runOutput struct {
	Attempted, Failed int
	Samples           int // untraced samples
	// Metrics holds every end-to-end metric of an untraced run, or every
	// per-layer metric of a traced run.
	Metrics map[string]float64
}

func (o runOutput) correct() bool { return o.Failed == 0 }

// measure takes samples until the next one would end past cfg.seconds, at
// least one of each kind the run needs. Each sample runs the workload's
// experiments in an order drawn from the seed; nothing else depends on it.
// End-to-end times are scaled to reference-host seconds by the calibration
// loops timed before, between and after the samples.
func measure(cfg runConfig, log io.Writer) (runOutput, error) {
	w := cfg.workload
	rng := rand.New(rand.NewPCG(cfg.seed, 0))
	var out runOutput
	var calibs, setups []float64
	calib := func(n int) {
		for range n {
			calibs = append(calibs, calibrate())
		}
	}
	calib(calibEdge)
	if cfg.traceDir == "" {
		for range setupProbes {
			s, err := spawn(childSpec{Experiments: w.Experiments, Root: cfg.root, SetupOnly: true})
			if err != nil {
				return out, err
			}
			setups = append(setups, s.setupS)
		}
	}

	var untraced, traced []sample
	var profiles []string
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 1; ; i++ {
		calib(1)
		spec := childSpec{Experiments: w.order(rng), Root: cfg.root, Sample: i}
		isTraced := cfg.traceDir != "" && i > 1
		if isTraced {
			spec.Profile = filepath.Join(cfg.traceDir, fmt.Sprintf("%s.%d.cpu.pprof", w.Name, i))
			profiles = append(profiles, spec.Profile)
		}
		t := time.Now()
		s, err := spawn(spec)
		if err != nil {
			return out, err
		}
		out.Attempted += s.res.Attempted
		out.Failed += s.res.Failed
		for _, f := range s.res.Failures {
			fmt.Fprintf(log, "cbbench: %s sample %d FAILED %s\n", w.Name, i, f)
		}
		if isTraced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
			setups = append(setups, s.setupS)
		}
		if time.Since(start)+time.Since(t) > budget && (cfg.traceDir == "" || len(traced) > 0) {
			break
		}
	}
	calib(calibEdge)
	out.Samples = len(untraced)

	col := func(ss []sample, f func(sample) float64) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return xs
	}
	wall := col(untraced, func(s sample) float64 { return s.res.WallS })
	hostCalib := median(calibs)
	if cfg.traceDir == "" {
		rss := col(untraced, func(s sample) float64 { return s.rssMiB })
		speed := calibRef / hostCalib
		out.Metrics = map[string]float64{"wall_s": median(wall) * speed, "peak_rss_mb": median(rss), "setup_s": median(setups) * speed}
		for _, m := range []struct {
			name string
			xs   []float64
		}{{"raw wall_s", wall}, {"peak_rss_mb", rss}, {"raw setup_s", setups}, {"calib_s", calibs}} {
			q1, med, q3 := quartiles(m.xs)
			fmt.Fprintf(log, "cbbench: %s %-12s median %.6g  q1 %.6g  q3 %.6g  n %d\n", w.Name, m.name, med, q1, q3, len(m.xs))
		}
		return out, nil
	}

	// Counter metrics are medians over every sample, span metrics over the
	// traced ones: counts are the same either way, and the CPU profile adds
	// no more to the times than trace.overhead shows.
	vals := map[string][]float64{}
	for _, s := range append(append([]sample(nil), untraced...), traced...) {
		for k, v := range s.res.Metrics {
			vals[k] = append(vals[k], v)
		}
		vals["go.cpu_s"] = append(vals["go.cpu_s"], s.cpuS)
	}
	m := map[string]float64{"host.calib_s": hostCalib}
	for k, xs := range vals {
		m[k] = median(xs)
	}
	m["trace.overhead"] = median(col(traced, func(s sample) float64 { return s.res.WallS }))/median(wall) - 1
	fold, err := foldProfiles(filepath.Join(cfg.traceDir, w.Name+".cpu.pprof"), profiles)
	if err != nil {
		return out, err
	}
	for k, v := range fold.metrics(len(traced)) {
		m[k] = v
	}
	if err := writeTrace(filepath.Join(cfg.traceDir, w.Name+".trace.json"), traced); err != nil {
		return out, err
	}
	if err := writeJSON(filepath.Join(cfg.traceDir, w.Name+".layers.json"), m); err != nil {
		return out, err
	}
	out.Metrics = m
	return out, nil
}

// writeTrace writes the traced samples' spans in Chrome trace format, one
// process per sample. Experiment-level spans share a lane; each scenario
// takes the lowest lane free when it starts.
func writeTrace(path string, traced []sample) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for _, s := range traced {
		spans := append([]span(nil), s.res.Spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		var laneEnd []int64
		var end int64
		for _, sp := range spans {
			tid := 0
			if sp.Kind == "scenario" {
				tid = len(laneEnd) + 1
				for l, e := range laneEnd {
					if e <= sp.Start {
						tid = l + 1
						break
					}
				}
				if tid > len(laneEnd) {
					laneEnd = append(laneEnd, 0)
				}
				laneEnd[tid-1] = sp.End
			}
			end = max(end, sp.End)
			events = append(events, event{Name: sp.Kind + " " + sp.Name, Cat: sp.Kind, Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3, Pid: sp.Trace, Tid: tid,
				Args: map[string]int{"id": sp.ID, "parent": sp.Parent, "trace": sp.Trace}})
		}
		events = append(events, event{Name: "sample", Cat: "sample", Ph: "X", Dur: float64(end) / 1e3,
			Pid: s.res.Spans[0].Trace, Args: map[string]int{"trace": s.res.Spans[0].Trace}})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
