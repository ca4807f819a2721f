// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, checks the outputs, and prints every
// metric as one JSON object on the last line of standard output. See
// DESIGN.md for the workloads, the metrics and how to read them.
//
//	perfbench --workload paper-grid --seed 1 --seconds 20 --trace 0
//	perfbench --spread 10 --workload solo-explore --seed 1 --seconds 20
//
// Run it from the checkout root through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []workloadSpec{paperGridSpec, soloExploreSpec, strexdWarmSpec}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "host seconds of timed passes to measure (at least three passes run)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	spread := fs.Int("spread", 0, "run the workload this many times, one process each at seeds seed, seed+1, ..., and print the spread of every metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *spread > 0 {
		return spreadReport(spec.name, *seed, *seconds, *traceFlag, *spread, stdout, stderr)
	}

	workDir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", spec.name, os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		workDir: workDir,
		log:     stderr,
	}
	out, err := drive(spec, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", p)
	}
	defs := endToEnd
	values := out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && cfg.trace {
			v, ok = 0, true // the layer did no work on this workload
		}
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", spec.name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", spec.name)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", spec.name, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(out.spans))
	}
	printTable(stderr, spec.name, defs, values, out.samples)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printTable writes every printed metric with its unit and, for the
// end-to-end ones, the number of samples behind it.
func printTable(w io.Writer, workload string, defs []metricDef, values map[string]float64, samples map[string]int) {
	fmt.Fprintf(w, "%s:\n", workload)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-36s %16.6g %-10s", n, values[n], units[n])
		if k, ok := samples[n]; ok {
			line += fmt.Sprintf(" n=%d", k)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
