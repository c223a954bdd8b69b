// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload per process and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"op_s": {"value": 2.93, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 a separate traced pass records spans around
// every call into a layer and reports the per-layer metrics. Names and units
// come from BENCHMARK.json, which must be in the working directory (the
// repository root). See README.md in this directory for what each workload
// and metric means.
//
// Usage (from the repository root, after building cmd/mule and cmd/muled):
//
//	perfbench -workload cli-text -seed 1 -seconds 15 -trace 0 -bin .bench_build/perfbench/bin -work .bench_build/perfbench/work
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose reference answers are pinned in golden.json.
const defaultSeed = 1

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration // length of the measured phase
	trace   bool
	bin     string // directory holding the mule and muled binaries
	work    string // scratch directory for generated inputs and outputs
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload reports back: op counts, whether every answer
// was right, and metric values by name (units are filled in from
// BENCHMARK.json).
type outcome struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
}

var workloads = map[string]func(config) (outcome, error){
	"cli-text":    runCLIText,
	"mine-skewed": runMineSkewed,
	"serve-mixed": runServeMixed,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: cli-text|mine-skewed|serve-mixed")
		seed     = flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		bin      = flag.String("bin", ".bench_build/perfbench/bin", "directory holding the mule and muled binaries")
		work     = flag.String("work", ".bench_build/perfbench/work", "scratch directory for inputs and outputs")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want cli-text|mine-skewed|serve-mixed)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	wanted := spec.EndToEnd
	if *trace == 1 {
		wanted = spec.PerLayer
	}
	dir := filepath.Join(*work, *workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin, work: dir}
	printEnv(cfg, *workload)

	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(wanted))}
	for _, m := range wanted {
		v, ok := out.values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %q was not measured", *workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// No successful op to measure; the failure counts say why.
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(out.values) != len(wanted) {
		var extra []string
		for name := range out.values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("%s: measured metrics not listed in BENCHMARK.json: %s", *workload, strings.Join(extra, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the metric list: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// printEnv records the environment beside every result, so rows measured
// on different machines are never compared silently.
func printEnv(cfg config, workload string) {
	env := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
