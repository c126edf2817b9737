// Command perfbench is the repository's benchmark. It drives one named
// workload through the public dds API from one process: it generates each
// site's stream file from the seed, then repeatedly starts a cluster, has
// every site read its file and offer each element, and checks the merged
// sample against the exact reference. It prints a stamp line and, as the
// last line of standard output, one JSON result:
//
//	bash perfbench/run.sh --workload infinite-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of untraced reps.
// With --trace 1 it holds the per-layer metrics: untraced and fully traced
// reps alternate, the benchmark records its own spans around each call it
// makes into the program, and it replays single layers on the same inputs.
// Spans are written to .bench_build/perfbench/ when the run ends. A run
// whose sample differs from the reference exits with status 1 and prints a
// command that repeats it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

const (
	// outDir holds run files, relative to the directory the benchmark runs
	// in (the repository root).
	outDir = ".bench_build/perfbench"
	// minReps is the fewest untraced reps a run reports medians over; a
	// trace run needs that many of each kind.
	minReps = 3
	// minQueries is the fewest queries whose latency a run reports, so that
	// at least ten lie beyond the 90th percentile.
	minQueries = 100
	// minSetups is the fewest set-ups setup_s is the median of.
	minSetups = 31
	// maxMeasure stops adding reps however few queries have run, and
	// watchdog ends a run that hangs.
	maxMeasure = 120 * time.Second
	watchdog   = 170 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: infinite-uniform, large-sample-ops or sliding-window")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same streams")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d still running after %v\n", w.name, *seed, watchdog)
		os.Exit(3)
	})

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	genStart := time.Now()
	in, err := generate(w, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate inputs:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs generated in %.1fs\n", w.name, *seed, time.Since(genStart).Seconds())

	ctx := context.Background()
	traceMode := *trace == 1
	var rec *recorder
	if traceMode {
		rec = &recorder{}
	} else {
		in.arrivals = nil // only the layer replays need them
	}
	var untraced, traced []*repResult
	var setups []float64
	var ops tally
	var problems []string
	queries := func() int {
		n := 0
		for _, r := range untraced {
			n += len(r.queryLat)
		}
		return n
	}
	enough := func() bool {
		if traceMode {
			return len(untraced) >= minReps && len(traced) >= minReps
		}
		return len(untraced) >= minReps && queries() >= minQueries
	}
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	for i := 0; len(problems) == 0; i++ {
		elapsed := time.Since(start)
		if (elapsed >= budget && enough()) || elapsed >= maxMeasure {
			break
		}
		env := repEnv{run: i, dir: filepath.Join(dir, "rep-"+strconv.Itoa(i)), traced: traceMode && i%2 == 0 && i > 0}
		if env.traced {
			env.rec = rec
		}
		r := runRep(ctx, w, in, env)
		_ = os.RemoveAll(env.dir)
		fmt.Fprintf(os.Stderr, "perfbench: rep %d traced=%v: %.0f elements/s, %d queries p50 %.2fms, set-up %.2fms\n",
			i, r.traced, float64(r.elements)/r.ingest.Seconds(), len(r.queryLat), quantile(r.queryLat, 0.5)/1e6, float64(r.setup)/1e6)
		ops.add(r.ops)
		problems = append(problems, r.mismatch...)
		if r.setup > 0 && i > 0 {
			setups = append(setups, float64(r.setup))
		}
		switch {
		case i == 0:
			// The first rep warms caches and the heap; it is checked but
			// not reported.
			start = time.Now()
		case r.traced:
			traced = append(traced, r)
		default:
			untraced = append(untraced, r)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d untraced and %d traced reps in %.1fs\n", len(untraced), len(traced), time.Since(start).Seconds())
	for i := 0; len(problems) == 0 && len(setups) < minSetups; i++ {
		env := repEnv{run: -1, dir: filepath.Join(dir, "setup-"+strconv.Itoa(i))}
		d, o := setupOnly(ctx, w, env)
		_ = os.RemoveAll(env.dir)
		ops.add(o)
		if d == 0 {
			problems = append(problems, "set-up failed")
			break
		}
		setups = append(setups, float64(d))
	}
	if len(untraced) == 0 || (traceMode && len(traced) == 0) {
		problems = append(problems, "no rep completed")
	}

	var metrics map[string]metric
	if len(problems) == 0 {
		if traceMode {
			metrics = perLayer(w, in, untraced, traced, rec)
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
			if err := rec.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			}
		} else {
			metrics = endToEnd(untraced, setups, ops)
		}
	}
	printStamp(w, *seed, in, untraced, ops)

	correct := len(problems) == 0
	if !correct {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", w.name, *seed, p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat with: bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d\n",
			w.name, *seed, *seconds, *trace)
	}
	if metrics == nil {
		metrics = map[string]metric{}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(ops.attempted, 1), ops.failed, metrics})
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// printStamp prints what the result was measured on and with, as one JSON
// line ahead of the result.
func printStamp(w workload, seed uint64, in *inputs, reps []*repResult, ops tally) {
	var late, lat []float64
	elements := 0
	for _, r := range reps {
		late = append(late, r.late...)
		lat = append(lat, r.queryLat...)
		elements += r.elements
	}
	tail, _ := highestPercentile(len(lat))
	stamp := map[string]any{
		"go":                    runtime.Version(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"nproc":                 runtime.NumCPU(),
		"commit":                commit(),
		"workload":              w.name,
		"seed":                  seed,
		"elements_per_rep":      in.elements(),
		"elements_measured":     elements,
		"untraced_reps":         len(reps),
		"queries":               len(lat),
		"query_tail_percentile": tail,
		"query_late_p50_ms":     quantile(late, 0.5) / 1e6,
		"query_late_max_ms":     quantile(late, 1) / 1e6,
		"error_rate":            ops.errorRate(),
	}
	data, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(data))
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
