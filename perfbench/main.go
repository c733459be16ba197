// Command perfbench is the repository's benchmark: it runs one named
// workload of the EPRONS simulator, checks that the simulated outputs are
// correct, and prints its end-to-end metrics (or, with --trace 1, its
// per-layer metrics) as one JSON object on the last line of stdout.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload joint-k4 --seed 1 --seconds 36 --trace 0
//	bash perfbench/run.sh --steadiness --sets 2 --runs 5 --seconds 36
//
// Each repetition of a workload runs in a fresh child process limited to
// one CPU (GOMAXPROCS=1); README.md explains the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Seeds. defaultSeed is used when --seed is absent; heldOutSeed is kept
// out of tuning so that a later claim can be re-checked on an unseen input.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// Repetition limits of one measured run.
const (
	minReps = 3
	maxReps = 16
	// repTimeout bounds one child; runBudget bounds the whole run so it
	// always ends within its deadline.
	repTimeout = 150 * time.Second
	runBudget  = 160 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: joint-k4, fabric-k16 or replica-hedged")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's generators (held-out seed: "+strconv.Itoa(heldOutSeed)+")")
	seconds := fs.Int("seconds", 36, "measuring time of one run, in wall seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of traced repetitions instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace"), "directory for the span files of traced repetitions")
	rep := fs.Bool("rep", false, "run one repetition in this process and print its raw result (used by the parent)")
	steady := fs.Bool("steadiness", false, "print the steadiness report over interleaved sets of every workload")
	sets := fs.Int("sets", 2, "steadiness report: number of interleaved sets")
	runs := fs.Int("runs", 5, "steadiness report: runs per workload and set, seeds seed..seed+runs-1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady {
		if err := steadiness(stdout, *sets, *runs, *seed, *seconds); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (joint-k4, fabric-k16, replica-hedged), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if *rep {
		out, err := runRep(def, *seed, 0, *trace == 1, *traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			return 1
		}
		return 0
	}
	res, err := measure(def, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d reps=%d digest=%s steal_ratio=%.3f failed_checks=%v\n",
		def.name, *seed, len(res.reps), res.digest, res.stealRatio, res.failedChecks)
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// repOutput is what one child repetition reports to the parent.
type repOutput struct {
	Traced    bool               `json:"traced"`
	SetupCPU  float64            `json:"setup_cpu_s"`
	SetupWall float64            `json:"setup_wall_s"`
	RunCPU    float64            `json:"run_cpu_s"`
	RunWall   float64            `json:"run_wall_s"`
	Resolved  int                `json:"resolved"`
	RSSMB     float64            `json:"rss_mb"`
	Digest    string             `json:"digest"`
	Checks    int                `json:"checks"`
	Failed    []string           `json:"failed"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// runRep builds and runs one repetition in this process. Set-up is timed
// from the start of the build to the first simulated event; the run phase
// covers every Engine.Run slice and the drain.
func runRep(def *workloadDef, seed int64, durationS float64, traced bool, traceOut string) (repOutput, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	u0, g0 := readUsage(), readGoRuntime()
	s, err := newStack(def, seed, durationS, tr)
	if err != nil {
		return repOutput{}, err
	}
	u1, g1 := readUsage(), readGoRuntime()
	s.run()
	u2, g2 := readUsage(), readGoRuntime()

	out := repOutput{
		Traced:    traced,
		SetupCPU:  (u1.cpu - u0.cpu).Seconds(),
		SetupWall: u1.wall.Sub(u0.wall).Seconds(),
		RunCPU:    (u2.cpu - u1.cpu).Seconds(),
		RunWall:   u2.wall.Sub(u1.wall).Seconds(),
		Resolved:  s.resolved(),
		RSSMB:     float64(u2.maxRSS) / 1024,
		Digest:    s.digest(),
		Failed:    []string{},
	}
	for _, c := range s.checks() {
		out.Checks++
		if c.err != nil {
			out.Failed = append(out.Failed, c.name+": "+c.err.Error())
		}
	}
	if traced {
		out.Layer = s.layerMetrics(u0, u1, u2, g0, g1, g2)
		if traceOut != "" {
			if err := os.MkdirAll(traceOut, 0o755); err != nil {
				return out, err
			}
			path := filepath.Join(traceOut, fmt.Sprintf("%s-seed%d-pid%d.jsonl", def.name, seed, os.Getpid()))
			if err := tr.write(path, out.Layer); err != nil {
				return out, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return out, nil
}

// runResult is one measured run: its repetitions and the printed report.
type runResult struct {
	reps         []repOutput
	digest       string
	stealRatio   float64
	failedChecks []string
	report       report
}

// report is the JSON object printed on the last line of stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs repetitions of one workload in child processes until the
// measuring time is used (at least minReps; in trace mode, pairs of an
// untraced and a traced repetition) and reduces them to medians.
func measure(def *workloadDef, seed int64, seconds int, trace bool, traceOut string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	var res runResult
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	for {
		traced := trace && len(res.reps)%2 == 1
		t0 := time.Now()
		out, err := spawnRep(self, def.name, seed, traced, traceOut)
		if err != nil {
			return runResult{}, err
		}
		res.reps = append(res.reps, out)
		last := time.Since(t0)
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d traced=%v setup_cpu_s=%.4f run_cpu_s=%.4f queries_per_cpu_s=%.2f rss_mb=%.2f digest=%s\n",
			def.name, len(res.reps), out.Traced, out.SetupCPU, out.RunCPU, float64(out.Resolved)/out.RunCPU, out.RSSMB, out.Digest)
		if trace && len(res.reps)%2 == 1 {
			continue // a traced run measures untraced/traced pairs
		}
		elapsed := time.Since(start)
		if len(res.reps) >= maxReps || elapsed+last > runBudget {
			break
		}
		if (len(res.reps) >= minReps || trace) && elapsed+last > budget {
			break
		}
	}
	res.reduce(trace)
	return res, nil
}

// spawnRep runs one repetition in a child process on one CPU and parses
// the JSON it prints.
func spawnRep(self, name string, seed int64, traced bool, traceOut string) (repOutput, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	tflag := "0"
	if traced {
		tflag = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--rep", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--trace", tflag, "--trace-out", traceOut)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return repOutput{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	var out repOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		return repOutput{}, fmt.Errorf("%s repetition: parse result: %w", name, err)
	}
	return out, nil
}

// reduce turns the repetitions into the printed report. Every repetition
// of one seed must produce the same simulated digest, traced or not; a
// mismatch counts as one failed check.
func (r *runResult) reduce(trace bool) {
	var cpu, wall float64
	r.failedChecks = []string{}
	attempted, failed := 0, 0
	for _, rep := range r.reps {
		cpu += rep.SetupCPU + rep.RunCPU
		wall += rep.SetupWall + rep.RunWall
		attempted += rep.Checks
		failed += len(rep.Failed)
		r.failedChecks = append(r.failedChecks, rep.Failed...)
	}
	r.digest = r.reps[0].Digest
	attempted++
	for _, rep := range r.reps[1:] {
		if rep.Digest != r.digest {
			failed++
			r.failedChecks = append(r.failedChecks, "digest-repeat: "+rep.Digest+" != "+r.digest)
			break
		}
	}
	if wall > 0 {
		r.stealRatio = 1 - cpu/wall
	}
	metrics := map[string]metricValue{}
	if !trace {
		var setup, qps, rss []float64
		for _, rep := range r.reps {
			setup = append(setup, rep.SetupCPU)
			qps = append(qps, float64(rep.Resolved)/rep.RunCPU)
			rss = append(rss, rep.RSSMB)
		}
		vals := map[string]float64{"setup_s": median(setup), "queries_per_cpu_s": median(qps), "peak_rss_mb": median(rss)}
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		var plain, traced []float64
		for _, rep := range r.reps {
			if rep.Traced {
				traced = append(traced, rep.SetupCPU+rep.RunCPU)
			} else {
				plain = append(plain, rep.SetupCPU+rep.RunCPU)
			}
		}
		for _, m := range perLayer {
			var vs []float64
			for _, rep := range r.reps {
				if rep.Traced {
					vs = append(vs, rep.Layer[m.name])
				}
			}
			metrics[m.name] = metricValue{median(vs), m.unit}
		}
		metrics["trace.overhead_pct"] = metricValue{(median(traced)/median(plain) - 1) * 100, "%"}
	}
	r.report = report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}
