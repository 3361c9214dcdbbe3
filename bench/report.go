package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark contract: %w", err)
	}
	var c contract
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if c.RunSeconds <= 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return &c, nil
}

// endToEnd returns the contract's entry for an end-to-end metric.
func (c *contract) endToEnd(name string) (contractMetric, bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return contractMetric{}, false
}

func (c *contract) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// machine stamps a result with where it was taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func stampMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     headCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// headCommit reads the checked-out commit from .git without running
// git; a checkout that is not a repository is stamped "unknown".
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// report is the full result of one invocation, the -json file.
type report struct {
	Machine   machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads,omitempty"`
	Layers    *tracedResult     `json:"layers,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func (r *report) write(path string) error {
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// valueWire is one metric on the result line.
type valueWire struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output when one workload
// runs: exactly the keys the acceptance driver reads.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueWire `json:"metrics"`
}

// summaryLine is the last line when every workload runs.
type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Workloads map[string]resultLine `json:"workloads,omitempty"`
	Layers    *resultLine           `json:"layers,omitempty"`
	Claim     *string               `json:"claim"`
}

func (r *report) lastLine(c *contract, all bool) interface{} {
	lines := map[string]resultLine{}
	correct := true
	for _, w := range r.Workloads {
		l := resultLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]valueWire{}}
		for _, m := range c.EndToEnd {
			l.Metrics[m.Name] = valueWire{Value: w.Metrics[m.Name].Median, Unit: m.Unit}
		}
		lines[w.Name] = l
		correct = correct && w.Correct
	}
	var layers *resultLine
	if t := r.Layers; t != nil {
		layers = &resultLine{Correct: t.Correct, Attempted: t.Attempted, Failed: t.Failed, Metrics: map[string]valueWire{}}
		for _, m := range c.PerLayer {
			layers.Metrics[m.Name] = valueWire{Value: t.Metrics[m.Name], Unit: m.Unit}
		}
		correct = correct && t.Correct
	}
	if all {
		return summaryLine{Correct: correct, Workloads: lines, Layers: layers}
	}
	if layers != nil {
		return *layers
	}
	return lines[r.Workloads[0].Name]
}

func printWorkload(w io.Writer, res *workloadResult) {
	if res.Name == wlSwarm {
		fmt.Fprintf(w, "%s: %d trials of %d swarms, %d ops attempted, %d failed\n", res.Name, res.Trials, swarmsPerTrial, res.Attempted, res.Failed)
	} else {
		fmt.Fprintf(w, "%s: %d trials of %d closed+open windows of %.2f s, %d ops attempted, %d failed\n",
			res.Name, res.Trials, res.Windows, res.WindowS, res.Attempted, res.Failed)
	}
	fmt.Fprintf(w, "  box speed %.3f of the reference (q1 %.3f, q3 %.3f, n %d); medians below are stated at the reference speed\n",
		res.Speed.Median, res.Speed.Q1, res.Speed.Q3, res.Speed.N)
	fmt.Fprintf(w, "  %-14s %-4s %14s %14s %14s %3s  %-7s %14s\n", "metric", "unit", "median", "q1", "q3", "n", "spread", "as measured")
	for _, d := range endToEnd {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-14s %-4s %14.4f %14.4f %14.4f %3d  %5.1f%%  %14.4f\n", d.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N, 100*m.spread(), res.Raw[d.Name].Median)
	}
	for _, group := range []struct {
		title string
		m     map[string]float64
	}{{"check", res.Checks}, {"generator", res.Gen}} {
		keys := make([]string, 0, len(group.m))
		for k := range group.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s %s = %.4g\n", group.title, k, group.m[k])
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
