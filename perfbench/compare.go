package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain reads the run records of two commits (JSON lines files, as
// the benchmark prints them; other lines are skipped) and prints, for
// each workload and metric, both sides' medians and quartiles and a
// verdict:
//
//   - better: the new side wins at least 9 of every 10 seed-paired runs
//     (ties count for neither) and the medians differ by more than the old
//     side's interquartile range;
//   - worse: the new median is worse than the old by more than the
//     metric's bound, or, for a metric without a bound, the old side wins
//     by the same rule as better;
//   - unresolved: neither, with the reason: the difference is within the
//     bound, the old side's spread exceeds the bound, or the new side
//     failed more requests (median failed_ratio) than the old, which
//     withholds a gain.
//
// Runs marked invalid (the load generator fell behind) or incorrect
// (wrong answers) are skipped, and each side's count of skipped runs is
// printed. A seed that appears twice for one workload and trace mode on
// one side is an error.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	specs := make(map[string]metricSpec)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	var sides [2]map[string]map[int64]float64 // "workload/trace/metric" -> seed -> value
	for i, path := range args {
		var used, invalid, incorrect int
		if sides[i], used, invalid, incorrect, err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(w, "%s: %d runs used, %d invalid and %d with wrong answers skipped\n", path, used, invalid, incorrect)
	}
	var keys []string
	for k := range sides[0] {
		if _, ok := sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\told median [q1, q3]\tnew median [q1, q3]\tverdict")
	for _, k := range keys {
		parts := strings.SplitN(k, "/", 3)
		ms := specs[parts[2]]
		if ms.Better == "" {
			ms.Better = "lower" // record-only detail metrics are latencies, ratios of failures and costs
		}
		old, nw := paired(sides[0][k], sides[1][k])
		if len(old) == 0 {
			continue
		}
		v := verdict(old, nw, ms)
		if v == "better" && moreFailures(sides, parts[0]+"/"+parts[1]) {
			v = "unresolved (new side failed more requests)"
		}
		oq1, oq3 := quartiles(old)
		nq1, nq3 := quartiles(nw)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\n",
			parts[0], parts[2], len(old), median(old), oq1, oq3, median(nw), nq1, nq3, v)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return 0
}

// readRecords collects the values of valid, correct runs by workload,
// trace mode, metric name and seed, and counts the runs it used and
// skipped. Record-only detail values are compared alongside.
func readRecords(path string) (out map[string]map[int64]float64, used, invalid, incorrect int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer f.Close()
	out = make(map[string]map[int64]float64)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Perfbench == 0 {
			continue
		}
		run := fmt.Sprintf("%s/%d/seed %d", r.Workload, r.Trace, r.Seed)
		if seen[run] {
			return nil, 0, 0, 0, fmt.Errorf("%s: %s appears twice", path, run)
		}
		seen[run] = true
		switch {
		case !r.Valid:
			invalid++
			continue
		case !r.Correct:
			incorrect++
			continue
		}
		used++
		for _, m := range []map[string]float64{r.Metrics, r.Detail} {
			for name, v := range m {
				k := fmt.Sprintf("%s/%d/%s", r.Workload, r.Trace, name)
				if out[k] == nil {
					out[k] = make(map[int64]float64)
				}
				out[k][r.Seed] = v
			}
		}
	}
	return out, used, invalid, incorrect, sc.Err()
}

// moreFailures reports whether the new side's median failed_ratio for a
// workload and trace mode ("workload/trace") is above the old side's,
// over the seeds both sides ran.
func moreFailures(sides [2]map[string]map[int64]float64, run string) bool {
	k := run + "/failed_ratio"
	old, nw := paired(sides[0][k], sides[1][k])
	return len(old) > 0 && median(nw) > median(old)
}

// paired returns both sides' values for the seeds present on both.
func paired(a, b map[int64]float64) (old, nw []float64) {
	var seeds []int64
	for s := range a {
		if _, ok := b[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		old = append(old, a[s])
		nw = append(nw, b[s])
	}
	return old, nw
}

func verdict(old, nw []float64, ms metricSpec) string {
	sign := 1.0 // positive when the new side is better
	if ms.Better == "lower" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range old {
		switch d := sign * (nw[i] - old[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	om, nm := median(old), median(nw)
	oq1, oq3 := quartiles(old)
	iqr := oq3 - oq1
	gain := sign * (nm - om)
	need := int(math.Ceil(0.9 * float64(len(old))))
	if wins >= need && gain > iqr {
		return "better"
	}
	if ms.Bound == 0 {
		if losses >= need && -gain > iqr {
			return "worse"
		}
		return "unresolved"
	}
	if om != 0 && iqr/math.Abs(om) > ms.Bound {
		return "unresolved (spread exceeds bound)"
	}
	if om != 0 && -gain/math.Abs(om) > ms.Bound {
		return "worse"
	}
	return "unresolved (within bound)"
}
