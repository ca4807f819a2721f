package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the spread report reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadReport runs the workload n times, each in its own process at
// seeds seed..seed+n-1, and prints for every metric its median,
// quartiles, quartile spread (Q3-Q1)/median and range (max-min)/median.
// An end-to-end metric whose quartile spread exceeds its bound in
// BENCHMARK.json is flagged, and so is one above a third of it (the
// steadiness target). It returns non-zero when a run fails or a metric
// exceeds its bound.
func spreadReport(workload string, seed uint64, seconds, trace, n int, stdout, stderr io.Writer) int {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			fmt.Fprintf(stderr, "perfbench: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = io.Discard
		runErr := cmd.Run()
		res, parseErr := lastResult(out.Bytes())
		if runErr != nil || parseErr != nil || !res.Correct {
			failed++
			fmt.Fprintf(stderr, "run %d (seed %d) failed: exit %v, parse %v\n", i+1, s, runErr, parseErr)
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		sort.Strings(names)
		line := fmt.Sprintf("run %d/%d (seed %d):", i+1, n, s)
		for _, name := range names {
			line += fmt.Sprintf(" %s=%.6g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(stderr, line)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, --seconds %d --trace %d, %d failed\n",
		workload, n, seed, seed+uint64(n)-1, seconds, trace, failed)
	fmt.Fprintf(stdout, "%-36s %-9s %14s %14s %14s %8s %8s %6s  %s\n",
		"metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "flag")
	over := 0
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3 := med, med
		if len(xs) >= 2 {
			q1, _, q3 = quartiles(xs)
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		iqr, rng := relTo(q3-q1, med), relTo(hi-lo, med)
		flag, boundCol := "", ""
		if b, ok := bounds[name]; ok {
			boundCol = fmt.Sprintf("%.3f", b)
			switch {
			case name == "setup_s":
			case iqr > b:
				flag = "OVER BOUND"
				over++
			case iqr > b/3:
				flag = "above bound/3"
			}
		}
		fmt.Fprintf(stdout, "%-36s %-9s %14.6g %14.6g %14.6g %8.4f %8.4f %6s  %s\n",
			name, units[name], med, q1, q3, iqr, rng, boundCol, flag)
	}
	if failed > 0 || over > 0 {
		return 1
	}
	return 0
}

// lastResult parses the JSON object on the last non-empty line of a
// run's standard output.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if last == "" {
		return res, fmt.Errorf("no output")
	}
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}

func relTo(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	if x < 0 {
		x = -x
	}
	if base < 0 {
		base = -base
	}
	return x / base
}
