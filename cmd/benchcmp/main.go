// Command benchcmp compares two benchmark runs and prints benchstat-style
// delta tables for ns/op, B/op and allocs/op — stdlib only, no external
// benchstat dependency. Inputs may be raw `go test -bench` output files or
// BENCH_<n>.json snapshots written by cmd/benchjson (detected by content),
// so a live run can be compared directly against the recorded perf
// trajectory. Repeated samples per benchmark (from -count) are averaged
// and the max deviation from the mean is shown as the ± column; each table
// ends with a geomean row (geometric mean of the per-benchmark new/old
// ratios over the common set).
//
//	go test -bench . -benchmem -count 5 ./... > old.txt
//	<make the change>
//	go test -bench . -benchmem -count 5 ./... > new.txt
//	go run ./cmd/benchcmp old.txt new.txt
//
// Benchmarks present in only one run are listed after the tables. With
// -guard, memory regressions fail the run: any common benchmark whose
// B/op or allocs/op grew by more than -threshold percent (default 10) is
// reported and the exit status is 2 — the `make benchguard` gate, which
// compares a fresh tier-1 bench run against the latest BENCH_<n>.json. A
// baseline benchmark missing from the new run fails the guard the same
// way, so deleting a tracked benchmark takes a new baseline snapshot.
// ns/op is deliberately exempt: wall time is too machine-sensitive for a
// hard gate, while allocation counts are deterministic and bytes nearly so.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"eprons/internal/benchparse"
)

// snapshot mirrors cmd/benchjson's output schema.
type snapshot struct {
	Date    string `json:"date"`
	Results []struct {
		Name        string  `json:"name"`
		Samples     int     `json:"samples"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  float64 `json:"b_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"results"`
}

// load reads a benchmark run from either raw `go test -bench` output or a
// benchjson snapshot, keyed by benchmark name in first-seen order.
func load(path string) (map[string]benchparse.Summary, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	byName := map[string]benchparse.Summary{}
	var order []string
	add := func(s benchparse.Summary) {
		byName[s.Name] = s
		order = append(order, s.Name)
	}
	if trimmed := bytes.TrimSpace(buf); len(trimmed) > 0 && trimmed[0] == '{' {
		var snap snapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, r := range snap.Results {
			add(benchparse.Summary{
				Name:        r.Name,
				Samples:     r.Samples,
				NsPerOp:     benchparse.Stat{Mean: r.NsPerOp, Known: true},
				BytesPerOp:  benchparse.Stat{Mean: r.BytesPerOp, Known: true},
				AllocsPerOp: benchparse.Stat{Mean: r.AllocsPerOp, Known: true},
			})
		}
		return byName, order, nil
	}
	results, err := benchparse.Parse(bytes.NewReader(buf))
	if err != nil {
		return nil, nil, err
	}
	for _, s := range benchparse.Summarize(results) {
		add(s)
	}
	return byName, order, nil
}

func delta(old, new benchparse.Stat) string {
	if !old.Known || !new.Known {
		return "-"
	}
	if old.Mean == 0 {
		if new.Mean == 0 {
			return "0.00%"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.2f%%", (new.Mean-old.Mean)/old.Mean*100)
}

// regression is one guarded metric that grew past the threshold.
type regression struct {
	name, metric string
	pct          float64
}

// section prints one metric's delta table (with a trailing geomean row)
// and returns the per-benchmark growth percentages for the guard.
func section(w *tabwriter.Writer, title string, order []string, olds, news map[string]benchparse.Summary,
	get func(benchparse.Summary) benchparse.Stat) map[string]float64 {
	fmt.Fprintf(w, "name\told %s\tnew %s\tdelta\n", title, title)
	growth := map[string]float64{}
	logSum, logN := 0.0, 0
	printed := false
	for _, name := range order {
		o, okO := olds[name]
		n, okN := news[name]
		if !okO || !okN {
			continue
		}
		so, sn := get(o), get(n)
		if !so.Known && !sn.Known {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", name, so, sn, delta(so, sn))
		printed = true
		if so.Known && sn.Known && so.Mean > 0 {
			growth[name] = (sn.Mean - so.Mean) / so.Mean * 100
			if sn.Mean > 0 {
				logSum += math.Log(sn.Mean / so.Mean)
				logN++
			}
		} else if so.Known && sn.Known && so.Mean == 0 && sn.Mean > 0 {
			growth[name] = math.Inf(1)
		}
	}
	switch {
	case !printed:
		fmt.Fprintln(w, "(no common benchmarks)\t\t\t")
	case logN > 0:
		fmt.Fprintf(w, "geomean\t\t\t%+.2f%%\n", (math.Exp(logSum/float64(logN))-1)*100)
	}
	fmt.Fprintln(w, "\t\t\t")
	return growth
}

// unmatched returns the names in order that other lacks, in order.
func unmatched(order []string, other map[string]benchparse.Summary) []string {
	var out []string
	for _, name := range order {
		if _, ok := other[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

func run() error {
	guard := flag.Bool("guard", false, "exit 2 when B/op or allocs/op regress past -threshold")
	threshold := flag.Float64("threshold", 10, "guarded regression threshold, percent")
	flag.Parse()
	if flag.NArg() != 2 {
		return fmt.Errorf("usage: benchcmp [-guard] [-threshold pct] <old> <new>")
	}
	olds, order, err := load(flag.Arg(0))
	if err != nil {
		return err
	}
	news, newOrder, err := load(flag.Arg(1))
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	section(w, "ns/op", order, olds, news, func(s benchparse.Summary) benchparse.Stat { return s.NsPerOp })
	bGrowth := section(w, "B/op", order, olds, news, func(s benchparse.Summary) benchparse.Stat { return s.BytesPerOp })
	aGrowth := section(w, "allocs/op", order, olds, news, func(s benchparse.Summary) benchparse.Stat { return s.AllocsPerOp })
	if err := w.Flush(); err != nil {
		return err
	}
	gone, added := unmatched(order, news), unmatched(newOrder, olds)
	for _, name := range gone {
		fmt.Printf("only in old: %s\n", name)
	}
	for _, name := range added {
		fmt.Printf("only in new: %s\n", name)
	}
	if !*guard {
		return nil
	}
	for _, name := range gone {
		fmt.Fprintf(os.Stderr, "benchcmp: MISSING %s: in the baseline but absent from the new run\n", name)
	}
	var regs []regression
	for _, name := range order {
		if pct, ok := bGrowth[name]; ok && pct > *threshold {
			regs = append(regs, regression{name, "B/op", pct})
		}
		if pct, ok := aGrowth[name]; ok && pct > *threshold {
			regs = append(regs, regression{name, "allocs/op", pct})
		}
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchcmp: REGRESSION %s %s %+.2f%% (threshold %.0f%%)\n", r.name, r.metric, r.pct, *threshold)
	}
	if len(regs) > 0 || len(gone) > 0 {
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchcmp: guard ok (every baseline benchmark ran; no B/op or allocs/op regression > %.0f%%)\n", *threshold)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}
