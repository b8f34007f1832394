// Command bench is the benchmark of record for the incremental walk store:
// five workloads that each stress a different set of layers, end-to-end
// metrics with regression bounds, per-layer metrics from a traced run, and
// correctness gates at the end of every run. BENCHMARK.json at the repository
// root declares what it must print; README.md explains every name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// The load is sized to the 2-CPU container the baseline was recorded on and
// pinned here rather than read from the environment, so two commits are
// always compared under the same scheduler and collector settings.
const (
	pinnedGOMAXPROCS = 2
	pinnedGOGC       = 300
)

// provenance is stamped into every output file.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Seed       uint64 `json:"seed"`
	RunSeconds int    `json:"run_seconds"`
	Runs       int    `json:"runs"`
	Tracing    bool   `json:"tracing"`
	Sizes      sizes  `json:"sizes"`
	Storage    string `json:"storage"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// summary is one metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// report is the output file: what -compare reads.
type report struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadReport `json:"workloads"`
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	runs    int
	scale   string
	out     string
}

func main() {
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)
	debug.SetGCPercent(pinnedGOGC)

	var (
		o        options
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		all      = flag.Bool("all", false, "run every workload")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, fresh state each; medians and quartiles are reported")
	flag.StringVar(&o.scale, "scale", "full", "input scale: full (the frozen sizes) or smoke (seconds, for tests)")
	flag.StringVar(&o.out, "out", "", "report file (default: out/result-<workload>.json beside this program)")
	flag.Parse()
	o.trace = *trace != 0

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two report files"))
		}
		worse, err := compareReports(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var names []string
	switch {
	case *all && *workload == "":
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	case !*all && spec.hasWorkload(*workload):
		names = []string{*workload}
	default:
		fatal(fmt.Errorf("want -all or -workload with one of the names in BENCHMARK.json, got %q", *workload))
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	if o.runs < 1 {
		fatal(fmt.Errorf("-runs must be at least 1"))
	}
	ok, err := runWorkloads(spec, filepath.Join(root, spec.Paths[0]), names, o)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkloads runs each named workload o.runs times, prints every metric
// with its unit, writes the report (and, traced, the span files) under
// benchDir/out, and ends standard output with the one-line JSON result the
// PR driver reads. It reports whether every correctness gate held.
func runWorkloads(spec benchSpec, benchDir string, names []string, o options) (bool, error) {
	sz, err := sizesFor(o.scale, o.seconds, spec.RunSeconds)
	if err != nil {
		return false, err
	}
	outDir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	prov := provenance{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: pinnedGOGC, Seed: o.seed, RunSeconds: o.seconds,
		Runs: o.runs, Tracing: o.trace, Sizes: sz,
		Storage: "WAL and snapshots are written to a temporary directory under out/; fsync and recovery times are this sandbox's file system, not a device's",
	}
	rep := report{Provenance: prov, Workloads: map[string]workloadReport{}}
	var last driverResult
	allOK := true
	for _, name := range names {
		wr := workloadReport{Metrics: map[string]summary{}}
		values := map[string][]float64{}
		for run := 0; run < o.runs; run++ {
			res, err := runOnce(name, sz, o.seed, o.trace, outDir)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			got, err := emit(declared, res.Metrics, o.trace)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			for k, v := range got {
				values[k] = append(values[k], v)
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
			if res.tr != nil {
				if err := writeTrace(filepath.Join(outDir, "trace-"+name+".json"), prov, name, run, res, got); err != nil {
					return false, err
				}
			}
		}
		last = driverResult{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverMetric{}}
		fmt.Printf("%s  seed %d  %d run(s)  scale %s  tracing %v\n", name, o.seed, o.runs, o.scale, o.trace)
		for _, d := range declared {
			q1, med, q3 := quartiles(values[d.Name])
			wr.Metrics[d.Name] = summary{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, N: o.runs, Values: values[d.Name]}
			last.Metrics[d.Name] = driverMetric{Value: med, Unit: d.Unit}
			line := fmt.Sprintf("  %-42s %16s %-6s", d.Name, strconv.FormatFloat(med, 'g', 6, 64), d.Unit)
			if o.runs > 1 {
				line += fmt.Sprintf("  q1 %-12.6g q3 %-12.6g n %d", q1, q3, o.runs)
			}
			fmt.Println(line)
		}
		for _, f := range wr.Failures {
			allOK = false
			fmt.Printf("  FAILED %s\n", f)
		}
		rep.Workloads[name] = wr
	}

	path := o.out
	if path == "" {
		tag := names[0]
		if len(names) > 1 {
			tag = "all"
		}
		if o.trace {
			tag += "-traced"
		}
		path = filepath.Join(outDir, "result-"+tag+".json")
	}
	if err := writeJSON(path, rep); err != nil {
		return false, err
	}
	line, err := json.Marshal(last)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return allOK, nil
}

// driverResult is the last line of standard output, in the shape the PR
// driver parses. With -all it describes the last workload run.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes one traced run: provenance, the span table (name index,
// start, end in nanoseconds since the run began, parent span index), the
// self time per span name, and the per-layer metrics derived from them.
func writeTrace(path string, prov provenance, workload string, run int, res *runResult, metrics map[string]float64) error {
	tr := res.tr
	spans := make([][4]int64, len(tr.spans))
	for i, s := range tr.spans {
		spans[i] = [4]int64{int64(s.name), s.start, s.end, int64(s.parent)}
	}
	self := map[string]float64{}
	for name, d := range tr.selfTimes() {
		self[name] = d.Seconds()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// One line: hundreds of thousands of spans do not want indenting.
	err = json.NewEncoder(f).Encode(map[string]any{
		"provenance":   prov,
		"workload":     workload,
		"run":          fmt.Sprintf("%s-seed%d-run%d", workload, prov.Seed, run),
		"span_columns": []string{"name", "start_ns", "end_ns", "parent"},
		"names":        tr.names,
		"self_time_s":  self,
		"metrics":      metrics,
		"spans":        spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
