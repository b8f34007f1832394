package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one declared metric of BENCHMARK.json. Bound is present on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the contract this program is held to:
// the workloads it must run and the exact metric set each run must print.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// loadSpec finds BENCHMARK.json in the working directory (the checkout root,
// where bench/run.sh starts the binary) or its parent (go run -C bench, go
// test) and returns it with the checkout root.
func loadSpec() (benchSpec, string, error) {
	var spec benchSpec
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return spec, "", err
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, root, nil
	}
	return spec, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// sizes are the frozen input dimensions of the five workloads. BENCHMARK.json
// has no room for them (its key set is fixed), so they live here and are
// copied into the provenance of every output file. The stream lengths are
// what one pass's timed phase — run_seconds/Passes long — consumes on the
// 2-CPU container the baseline was recorded on; -seconds scales them linearly
// so a fixed seed and a fixed -seconds always replay the same events.
type sizes struct {
	Scale string `json:"scale"`

	R      int     `json:"r"`
	Eps    float64 `json:"eps"`
	Passes int     `json:"passes"` // set-up + stream + read passes per run; medians are reported
	// Reads is the quiescent read phase of one untraced pass (TopK(100) on
	// pagerank, uncached personalized top-100 on SALSA): enough for a median.
	// TailReads is the traced run's single read phase: enough for ten samples
	// beyond p99.
	Reads     int     `json:"reads"`
	TailReads int     `json:"tail_reads"`
	WarmFrac  float64 `json:"warm_frac"` // untimed, uncounted head of every stream

	// pr_churn, pr_churn_par, durable_stream: preferential-attachment graph
	// replayed in random order; the first PRBootstrapEdges build the bootstrap
	// graph, the next PRArrivals feed the shrink-grow churn stream.
	PRNodes          int `json:"pr_nodes"`
	PRDegree         int `json:"pr_degree"`
	PRBootstrapEdges int `json:"pr_bootstrap_edges"`
	PRArrivals       int `json:"pr_arrivals"`
	DurableEvents    int `json:"durable_events"`
	CheckpointEvery  int `json:"checkpoint_every"`
	SyncEveryN       int `json:"sync_every_n"`

	// salsa_churn, serve_storm.
	SalsaNodes          int     `json:"salsa_nodes"`
	SalsaDegree         int     `json:"salsa_degree"`
	SalsaBootstrapEdges int     `json:"salsa_bootstrap_edges"`
	SalsaArrivals       int     `json:"salsa_arrivals"` // power-law arrivals before churn folding
	CompactEvery        int     `json:"compact_every"`
	ServeSeconds        float64 `json:"serve_seconds"`
	ServeQPS            int     `json:"serve_qps"`
	ServeBatch          int     `json:"serve_batch"`
	ServeZipf           float64 `json:"serve_zipf"`
	ServeCacheEntries   int     `json:"serve_cache_entries"`
	ServeRepeatSources  int     `json:"serve_repeat_sources"`

	// ProbeArrivals feed the churn stream the layer probes capture their
	// mutation sequence from, after every check has passed.
	ProbeArrivals int `json:"probe_arrivals"`
	ProbeMillis   int `json:"probe_millis"` // time cap of one layer-probe loop
	// WindowArrivals stream through engine.ApplyWindow at a capacity of a
	// quarter of them, so three quarters expire through the deletion path.
	WindowArrivals int `json:"window_arrivals"`

	// L1Ceiling is the correctness gate on l1_err per maintainer: about twice
	// the error the baseline records, far below what a broken repair yields.
	L1CeilingPR    float64 `json:"l1_ceiling_pagerank"`
	L1CeilingSalsa float64 `json:"l1_ceiling_salsa"`
}

// sizesFor returns the frozen sizes of a scale with every stream length
// multiplied by seconds/runSeconds.
func sizesFor(scale string, seconds, runSeconds int) (sizes, error) {
	var sz sizes
	switch scale {
	case "full":
		sz = sizes{
			Scale: scale, R: 8, Eps: 0.2, Passes: 3, WarmFrac: 0.05, Reads: 150, TailReads: 1100,
			PRNodes: 50_000, PRDegree: 24, PRBootstrapEdges: 600_000, PRArrivals: 280_000,
			DurableEvents: 300_000, CheckpointEvery: 80_000, SyncEveryN: 512,
			SalsaNodes: 30_000, SalsaDegree: 16, SalsaBootstrapEdges: 300_000, SalsaArrivals: 11_000,
			CompactEvery: 64, ServeSeconds: 4, ServeQPS: 150, ServeBatch: 64, ServeZipf: 1.0,
			ServeCacheEntries: 4096, ServeRepeatSources: 100,
			ProbeArrivals: 4000, ProbeMillis: 250, WindowArrivals: 40_000, L1CeilingPR: 0.05, L1CeilingSalsa: 0.09,
		}
	case "smoke":
		sz = sizes{
			Scale: scale, R: 4, Eps: 0.2, Passes: 2, WarmFrac: 0.05, Reads: 60, TailReads: 120,
			PRNodes: 2000, PRDegree: 8, PRBootstrapEdges: 8000, PRArrivals: 6000,
			DurableEvents: 3000, CheckpointEvery: 1000, SyncEveryN: 512,
			SalsaNodes: 1500, SalsaDegree: 8, SalsaBootstrapEdges: 7000, SalsaArrivals: 500,
			CompactEvery: 64, ServeSeconds: 0.6, ServeQPS: 200, ServeBatch: 64, ServeZipf: 1.0,
			ServeCacheEntries: 256, ServeRepeatSources: 20,
			ProbeArrivals: 300, ProbeMillis: 15, WindowArrivals: 2000, L1CeilingPR: 0.4, L1CeilingSalsa: 0.6,
		}
	default:
		return sz, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	if seconds < 1 || runSeconds < 1 {
		return sz, fmt.Errorf("seconds must be at least 1")
	}
	f := float64(seconds) / float64(runSeconds)
	scaleInt := func(v int) int { return max(1, int(float64(v)*f)) }
	// The churn stream cannot outgrow the generated edge list.
	room := sz.PRNodes*sz.PRDegree*9/10 - sz.PRBootstrapEdges - sz.ProbeArrivals
	sz.PRArrivals = min(scaleInt(sz.PRArrivals), room)
	sz.DurableEvents = scaleInt(sz.DurableEvents)
	sz.SalsaArrivals = scaleInt(sz.SalsaArrivals)
	sz.ServeSeconds *= f
	return sz, nil
}
