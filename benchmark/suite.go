package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header records where a result file was measured.
type header struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// workloadResult is one workload's two passes.
type workloadResult struct {
	Name string `json:"name"`
	// OpsAttempted and OpsFailed are counts, not metrics: jobs handed
	// to the system and jobs that failed verification, over both passes.
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Correct      bool                   `json:"correct"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

// runSuite runs both passes of every named workload, each in a fresh
// re-execution of this binary so that peak RSS, CPU accounting and GC
// state do not leak from one into the next, and writes the results.
func runSuite(names []string, seed int64, seconds float64, path string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	file := resultFile{Header: header{
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
	}}
	fmt.Printf("benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs windows\n",
		file.Header.Commit, file.Header.Go, file.Header.NProc, file.Header.GOMAXPROCS, seed, seconds)
	status := 0
	for _, name := range names {
		wr := workloadResult{Name: name, Correct: true}
		for _, trace := range []string{"0", "1"} {
			line, err := child(exe, name, seed, seconds, trace)
			if err != nil {
				fmt.Printf("benchmark: %s --trace %s: %v\n", name, trace, err)
				wr.Correct = false
				status = 1
			}
			wr.OpsAttempted += line.Attempted
			wr.OpsFailed += line.Failed
			wr.Correct = wr.Correct && line.Correct
			if trace == "0" {
				wr.EndToEnd = line.Metrics
			} else {
				wr.PerLayer = line.Metrics
			}
		}
		fmt.Printf("%s: ops_attempted %d, ops_failed %d\n\n", name, wr.OpsAttempted, wr.OpsFailed)
		file.Workloads = append(file.Workloads, wr)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("benchmark: wrote %s\n", path)
	return status
}

// child runs one pass in a fresh process, relays its report and parses
// its result line.
func child(exe, name string, seed int64, seconds float64, trace string) (resultLine, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	report, last := out, ""
	if i := strings.LastIndexByte(out, '\n'); i >= 0 {
		report, last = out[:i], out[i+1:]
	}
	fmt.Println(report)
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return line, runErr
}

// commit names the checkout, when it is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// --- -compare -----------------------------------------------------------

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is by what share of a, b is worse than a, given which
// direction is better; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, how b moved
// against a relative to the metric's bound, and returns 1 if any metric
// worsened past its bound, a workload is missing from b, or b failed
// verification. It is the tool for the repeatability criterion (two
// sets of runs of one commit) and for before/after tables.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadResults(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	inB := make(map[string]workloadResult)
	for _, wr := range b.Workloads {
		inB[wr.Name] = wr
	}
	status := 0
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%s: MISSING from %s\n", wa.Name, pathB)
			status = 1
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		if !wb.Correct {
			fmt.Fprintf(w, "  FAILED verification in %s (%d of %d ops)\n", pathB, wb.OpsFailed, wb.OpsAttempted)
			status = 1
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := worsening(m.Better, va, vb)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Fprintf(w, "  %-24s %14.4f -> %14.4f %-6s %+7.2f%% worse (%s is better, bound %4.1f%%)  %s\n",
				m.Name, va, vb, m.Unit, worse*100, m.Better, m.Bound*100, verdict)
		}
	}
	return status
}
