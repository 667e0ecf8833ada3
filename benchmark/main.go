// Command benchmark is the repository's two-clock benchmark: four
// workloads, each on its own simulated cluster, driven open-loop from
// this one process through the stack's public APIs, with every reply
// checked. See README.md for what each metric means.
//
//	go -C benchmark run . -workload rpc-small -seed 1            end-to-end metrics
//	go -C benchmark run . -workload rpc-small -seed 1 -trace 1   per-layer metrics
//	go -C benchmark run . -all -repeat 2 -check                  self-consistency
//	go -C benchmark run . -selftest                              sensitivity matrix
//
// The last line of standard output is one JSON object (one per
// workload with -all) holding correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"lite/internal/params"
)

// onOff is a flag that takes its value as the next argument ("-trace 1"),
// which a boolean flag would not.
type onOff bool

func (b *onOff) String() string { return strconv.FormatBool(bool(*b)) }
func (b *onOff) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = onOff(v)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var trace onOff
	workload := fs.String("workload", "", "workload to run: rpc-small, mem-mixed, kv-direct or fleet")
	seed := fs.Uint64("seed", 1, "seed for arrivals and op mix")
	seconds := fs.Float64("seconds", runSeconds, "nominal measuring time; op counts scale by seconds/12")
	fs.Var(&trace, "trace", "1: traced run, per-layer metrics; 0: plain run, end-to-end metrics")
	all := fs.Bool("all", false, "run the four workloads one after another")
	repeat := fs.Int("repeat", 1, "with -check: how many sets to run")
	check := fs.Bool("check", false, "verify that repeated sets agree: virtual metrics equal, host metrics within their bounds")
	selftest := fs.Bool("selftest", false, "run the sensitivity matrix on short runs")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for layers.json, spans.jsonl and cpu.pprof")
	profile := fs.Bool("pprof", false, "with -trace 1: write <out>/<workload>.cpu.pprof")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as this program's tables define it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The simulator runs exactly one proc at a time, each on its own
	// goroutine. With one P a hand-off between procs is a goroutine
	// switch on one thread; with two it is a futex wake-up across
	// threads (measured on rpc-small: 70 % more CPU per op and five
	// times the run-to-run spread).
	runtime.GOMAXPROCS(1)

	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *manifest {
		printManifest(stdout)
		return 0
	}
	scale := *seconds / runSeconds
	if *selftest {
		if err := selfTest(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark: selftest:", err)
			return 1
		}
		return 0
	}
	var todo []*spec
	switch {
	case *all:
		todo = specs
	case specByName(*workload) != nil:
		todo = []*spec{specByName(*workload)}
	default:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want rpc-small, mem-mixed, kv-direct, fleet, or -all)\n", *workload)
		return 2
	}

	// One workload in this process; several (or several sets) each in a
	// child process of their own. A finished cluster's parked daemons
	// keep it reachable for good, so in one process the second workload
	// would start on the first one's heap and every host-clock metric
	// would measure the queue position, not the workload.
	inProcess := len(todo) == 1 && *repeat <= 1
	var sets [][]*result
	for rep := 0; rep < max(*repeat, 1); rep++ {
		var set []*result
		for _, sp := range todo {
			var r *result
			var err error
			if inProcess {
				if r, err = runWorkload(sp, *seed, scale, bool(trace), *out, *profile); r != nil {
					printResult(stdout, r, bool(trace))
				}
			} else {
				r, err = runChild(stdout, stderr, sp, "-workload", sp.name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
					"-trace", trace.String(), "-out", *out, fmt.Sprintf("-pprof=%v", *profile))
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			set = append(set, r)
		}
		sets = append(sets, set)
	}
	if *check {
		if bad := checkSets(stdout, sets, bool(trace)); bad > 0 {
			fmt.Fprintf(stderr, "benchmark: -check: %d disagreements\n", bad)
			return 1
		}
	}
	return 0
}

func runWorkload(sp *spec, seed uint64, scale float64, trace bool, out string, profile bool) (*result, error) {
	if !trace {
		return measure(sp, params.Default(), seed, scale, setupRepeats)
	}
	if profile {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(out, sp.name+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	return traceRun(sp, params.Default(), seed, scale, out)
}

// runChild runs one workload in a child process, passes its report
// through, and reads the result back from its last line.
func runChild(stdout, stderr io.Writer, sp *spec, args ...string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child run: %w", sp.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s: child's last line is not a result: %w", sp.name, err)
	}
	return &result{workload: sp.name, correct: line.Correct, attempted: line.Attempted, failed: line.Failed, metrics: line.Metrics}, nil
}

// resultLine is the JSON object a run ends with.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the human-readable report and then the JSON line
// the driver reads.
func printResult(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "== %s  seed %d  %s run\n", r.workload, r.seed, map[bool]string{false: "plain", true: "traced"}[trace])
	for _, line := range r.lines {
		fmt.Fprintln(w, line)
	}
	line := func(name, unit string) {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", name, r.metrics[name].Value, unit)
	}
	if trace {
		for _, m := range perLayer {
			line(m.name, m.unit)
		}
	} else {
		for _, m := range endToEnd {
			line(m.name, m.unit)
		}
	}
	blob, err := json.Marshal(resultLine{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err) // every value is a finite float by construction
	}
	fmt.Fprintf(w, "%s\n", blob)
}

// checkSets compares every set with the first: virtual metrics must be
// bit-identical, host metrics within their bounds, and no two
// workloads may report the same slo_rate_ops_per_us or op_p50_us (each
// ladder must have driven its own workload).
func checkSets(w io.Writer, sets [][]*result, trace bool) (bad int) {
	complain := func(format string, a ...any) {
		bad++
		fmt.Fprintf(w, "CHECK FAILED: "+format+"\n", a...)
	}
	for _, set := range sets {
		for _, r := range set {
			if !r.correct {
				complain("%s: run was not correct", r.workload)
			}
		}
	}
	if trace {
		return bad
	}
	for s := 1; s < len(sets); s++ {
		for i, r := range sets[s] {
			first := sets[0][i]
			for _, m := range endToEnd {
				a, b := first.metrics[m.name].Value, r.metrics[m.name].Value
				switch {
				case !m.host && a != b:
					complain("%s: %s differs between set 1 and set %d: %v vs %v", r.workload, m.name, s+1, a, b)
				case m.host && math.Abs(a-b) > m.bound*math.Min(a, b):
					complain("%s: %s differs by more than %.0f %% between set 1 and set %d: %v vs %v", r.workload, m.name, 100*m.bound, s+1, a, b)
				}
			}
		}
	}
	for i, a := range sets[0] {
		for _, b := range sets[0][i+1:] {
			for _, name := range []string{"slo_rate_ops_per_us", "op_p50_us"} {
				if a.metrics[name].Value == b.metrics[name].Value {
					complain("%s and %s report the same %s (%v)", a.workload, b.workload, name, a.metrics[name].Value)
				}
			}
		}
	}
	if bad == 0 {
		fmt.Fprintf(w, "check: %d sets agree\n", len(sets))
	}
	return bad
}

// printManifest writes BENCHMARK.json: the driver's view of this
// program. Regenerate the file with -manifest after changing a table.
func printManifest(w io.Writer) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, entry{Name: sp.name, Why: sp.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		doc.EndToEnd = append(doc.EndToEnd, entry{Name: m.name, Unit: m.unit, Better: m.better, Bound: &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and finite floats
	}
	fmt.Fprintf(w, "%s\n", blob)
}
