package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs one workload N times, each with its own seed, and prints
// each metric's median, quartiles and interquartile range as a share of
// the median — the spread the bounds in BENCHMARK.json are set against.
// Every result line is appended to --out for a later compare.
func runSteady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, with seeds 1..runs")
	seconds := fs.String("seconds", "15", "--seconds of each run")
	out := fs.String("out", "", "append every result line to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var lines []result
	for i := 0; i < *runs; i++ {
		seed := strconv.Itoa(i + 1)
		cmd := exec.Command(self, "--workload", *name, "--seed", seed, "--seconds", *seconds, "--trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %s): %w", i, seed, err)
		}
		res, raw, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("run %d (seed %s): %w", i, seed, err)
		}
		lines = append(lines, res)
		if *out != "" {
			if err := appendLine(*out, raw); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "steady: %s seed %s attempted=%d failed=%d\n", *name, seed, res.Attempted, res.Failed)
	}
	printSpread(lines)
	return nil
}

func lastResult(stdout []byte) (result, []byte, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	raw := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, raw, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// values collects one metric across results.
func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func metricNames(rs []result) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		for k := range r.Metrics {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

func printSpread(rs []result) {
	fmt.Printf("%-32s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range metricNames(rs) {
		q := quartiles(values(rs, name))
		fmt.Printf("%-32s %14.6g %14.6g %14.6g %8.4f\n", name, q[0], q[1], q[2], (q[2]-q[0])/q[1])
	}
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	fmt.Printf("failed/attempted: %d/%d\n", failed, attempted)
}

// runCompare compares a parent's and a change's result sets run by run
// (the i-th line of each file is one pair). A metric improves only when
// the change wins at least nine tenths of the pairs and the medians differ
// by more than the parent's interquartile range. Each metric's better
// direction comes from BENCHMARK.json in the working directory.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare parent.jsonl change.jsonl")
	}
	lower, err := directions("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	n := min(len(parent), len(change))
	if n == 0 {
		return fmt.Errorf("no pairs to compare")
	}
	fmt.Printf("%-28s %12s %12s %12s %7s  %s\n", "metric", "parent", "change", "parent iqr", "wins", "verdict")
	for _, name := range metricNames(parent) {
		pv, cv := values(parent[:n], name), values(change[:n], name)
		if len(pv) != n || len(cv) != n {
			continue
		}
		better := func(a, b float64) bool { // a better than b
			if lower[name] {
				return a < b
			}
			return a > b
		}
		wins := 0
		for i := 0; i < n; i++ {
			if better(cv[i], pv[i]) {
				wins++
			}
		}
		pq, cm := quartiles(pv), median(cv)
		diff := cm - pq[1]
		if diff < 0 {
			diff = -diff
		}
		verdict := "no claim"
		switch {
		case float64(wins) >= 0.9*float64(n) && diff > pq[2]-pq[0]:
			verdict = "improved"
		case float64(n-wins) >= 0.9*float64(n) && diff > pq[2]-pq[0]:
			verdict = "worse"
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %3d/%-3d  %s\n", name, pq[1], cm, pq[2]-pq[0], wins, n, verdict)
	}
	return nil
}

// directions reads which metrics are better lower from a BENCHMARK.json.
func directions(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	lower := map[string]bool{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		lower[m.Name] = m.Better == "lower"
	}
	return lower, nil
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
