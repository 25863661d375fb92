// Command perfbench is the repository's serving benchmark. One run stands
// up a workload's serving stack in process (server.New, or router.New in
// front of two servers), drives it over loopback HTTP with at most two
// client goroutines and connections, checks every answer against a BFS
// oracle, and prints the run's metrics.
//
//	perfbench --workload reach-hot --seed 1 --seconds 10 --trace 0
//	perfbench compare old.jsonl new.jsonl
//
// With --trace 0 the run measures the end-to-end metrics named in
// BENCHMARK.json. With --trace 1 it runs the same traffic without and
// then with client spans, and replays the seed's inputs into each layer's
// public function (index.Reach, core.Run, dynamic.Service, Server and
// Router ServeHTTP) with spans recorded around the calls, and reports the
// per-layer metrics. --spans writes those spans as JSON.
//
// Standard output ends with two lines: the full record (host, commit,
// seed, workload parameters, every metric) and the result object with
// exactly the keys correct, attempted, failed and metrics. Collect the
// record lines of several runs in a file to compare two commits. A wrong
// answer makes the run exit with status 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	setupReps   = 15                    // set-ups per run; setup_s is their median
	tracedShare = 0.4                   // share of --seconds a traced run sends traffic for
	replayShare = 0.3                   // share of --seconds replayed into dynamic.Service
	maxLateP99  = 20 * time.Millisecond // two scheduler preemption quanta
)

// Warm-up and the alternating slices of a traced run last one round of
// query-mix shapes, so every slice of query-mix holds each shape once and
// plain and traced slices send the same mix.
const (
	warmup     = time.Duration(queryClasses) * time.Second / queryMixRate
	traceSlice = warmup
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	SourceHash string `json:"source_sha256"`
}

func host() hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	h.SourceHash = sourceHash(".")
	return h
}

// sourceHash identifies the code under test where no commit is known:
// the SHA-256 of every Go source and go.mod under root, skipping dot
// directories such as the build outputs.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is the full result of one run, printed before the result line.
type record struct {
	Perfbench int                `json:"perfbench"` // record format version
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   int                `json:"seconds"`
	Valid     bool               `json:"valid"`
	Invalid   string             `json:"invalid,omitempty"`
	Host      hostInfo           `json:"host"`
	Params    map[string]any     `json:"params"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]float64 `json:"detail"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fl := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fl.String("workload", "", "workload to run: reach-hot, query-mix, write-mix or routed-query")
	seed := fl.Int64("seed", 1, "seed for the graph and the request stream")
	seconds := fl.Int("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spansPath := fl.String("spans", "", "write the traced run's spans to this JSON file")
	_ = fl.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	if err := mainErr(*workload, *seed, *seconds, *trace, *spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int, spansPath string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	rec, spans, err := run(workload, seed, time.Duration(seconds)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	rec.Perfbench, rec.Seconds, rec.Trace, rec.Host = 1, seconds, trace, host()
	if spansPath != "" && spans != nil {
		if err := spans.write(spansPath); err != nil {
			return err
		}
	}
	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	for _, ms := range want {
		v, ok := rec.Metrics[ms.Name]
		if !ok {
			return fmt.Errorf("the run produced no value for metric %s", ms.Name)
		}
		line.Metrics[ms.Name] = valueUnit{Value: v, Unit: ms.Unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	if err := enc.Encode(line); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: wrong answers, see the record above", workload)
	}
	return nil
}
