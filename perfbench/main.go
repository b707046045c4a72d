// Command perfbench is the assembler's benchmark. It synthesizes one
// workload's reads, runs the parallel pipeline on them again and again
// for a fixed time, checks every run's output, and prints the medians
// of the end-to-end metrics (--trace 0) or of the per-layer metrics
// (--trace 1) as one JSON object on the last line of standard output.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/validate"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "maize, wgs, wgs-ooc, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = []string{"maize", "wgs", "wgs-ooc"}
	}
	total := report{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		w, ok := workloads[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want maize, wgs, wgs-ooc or all)\n", n)
			os.Exit(2)
		}
		rep, err := w.run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printTable(n, rep)
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable prints one workload's metrics by name and unit.
func printTable(name string, rep report) {
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", name, rep.Attempted, rep.Failed, rep.Correct)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-26s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}

// state is what set-up leaves for the measured runs.
type state struct {
	in     *input
	oracle []int // cluster.Serial's partition labels on the workload's store
}

// setup synthesizes the input, builds its repeat database and computes
// the serial reference partition on the workload's own store.
func (w workload) setup(seed int64) (*state, error) {
	in, err := w.makeInput(seed)
	if err != nil {
		return nil, err
	}
	labels, err := w.serialLabels(in)
	if err != nil {
		return nil, err
	}
	return &state{in: in, oracle: labels}, nil
}

// serialLabels runs cluster.Serial on the preprocessed reads in the
// workload's store.
func (w workload) serialLabels(in *input) ([]int, error) {
	frags, _ := preprocess.Run(in.reads, in.pre)
	store, _, done, err := w.openStore(frags)
	if err != nil {
		return nil, err
	}
	defer done()
	return cluster.PartitionLabels(cluster.Serial(store, w.cluster)), nil
}

// checker counts operations and the ones whose output was wrong.
type checker struct {
	attempted, failed int
}

// op records one attempted operation; a non-nil problem fails it.
func (c *checker) op(problem error) {
	c.attempted++
	if problem != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", problem)
	}
}

func partitionProblem(got, want []int, what string) error {
	if !cluster.SamePartition(got, want) {
		return fmt.Errorf("%s: the partitions differ", what)
	}
	return nil
}

// selfTest feeds the checker a partition with two fragments' labels
// swapped and fails unless it is counted as a failed operation.
func selfTest(oracle []int) error {
	bad := append([]int(nil), oracle...)
	for i := 1; i < len(bad); i++ {
		if bad[i] != bad[0] {
			bad[0], bad[i] = bad[i], bad[0]
			var c checker
			c.op(partitionProblem(bad, oracle, "self-test: reference with two labels swapped vs reference"))
			if c.failed != 1 || c.attempted != 1 {
				return errors.New("self-test: a permuted partition was not counted as failed")
			}
			fmt.Fprintln(os.Stderr, "perfbench: self-test ok: the permuted partition above was counted as 1 failed of 1")
			return nil
		}
	}
	return errors.New("self-test: the reference partition has a single cluster")
}

// run sets up, measures for d, checks every output and returns the
// medians.
func (w workload) run(seed int64, d time.Duration, traced bool) (report, error) {
	var st *state
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		s, err := w.setup(seed)
		if err != nil {
			return report{}, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		st = s
	}
	if err := selfTest(st.oracle); err != nil {
		return report{}, err
	}
	var memOracle []int
	if w.store.Backend == core.StoreDisk {
		// The out-of-core partition must equal the in-memory one.
		var err error
		if memOracle, err = workloads["wgs"].serialLabels(st.in); err != nil {
			return report{}, err
		}
	}

	var c checker
	var first *outcome
	// attempt counts one assembly and checks its output; the first
	// good one is the reference for the contig digest.
	attempt := func(o *outcome, err error) bool {
		if err == nil {
			err = partitionProblem(cluster.PartitionLabels(o.result), st.oracle, w.name+" vs cluster.Serial on its store")
		}
		if err == nil && memOracle != nil {
			err = partitionProblem(cluster.PartitionLabels(o.result), memOracle, w.name+" vs cluster.Serial on the in-memory wgs store")
		}
		if err == nil && first != nil && o.digest != first.digest {
			err = errors.New("contigs differ from the first assembly's")
		}
		c.op(err)
		if err == nil && first == nil {
			first = o
		}
		return err == nil
	}

	samples := map[string][]float64{}
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		o, res, err := w.measure(st.in, nil)
		if attempt(o, err) {
			fmt.Fprintf(os.Stderr, "perfbench: %s assembly %d: %.3f s\n", w.name, i+1, o.wall)
			for k, v := range res {
				samples[k] = append(samples[k], v)
			}
		}
		if !traced {
			continue
		}
		// A traced assembly after each untraced one gives the layer
		// metrics and, against the untraced one, the overhead.
		pr := &probes{tracer: obs.NewTracer(ranks, traceCapacity)}
		o, res, err = w.measure(st.in, pr)
		if attempt(o, err) {
			layers, err := parallelLayers(o, pr)
			if err != nil {
				return report{}, err
			}
			samples["wall_traced"] = append(samples["wall_traced"], res["wall_s"])
			for k, v := range layers {
				samples[k] = append(samples[k], v)
			}
		}
	}

	rep := report{Metrics: map[string]metric{}}
	if traced {
		if err := w.traceReport(st, &c, samples, rep.Metrics); err != nil {
			return report{}, err
		}
	} else {
		v := map[string]float64{
			"setup_s":     median(setupS),
			"peak_rss_mb": float64(peakRSS()) / mib,
			"wall_s":      median(samples["wall_s"]),
			"alloc_mb":    median(samples["alloc_mb"]),
			"modeled_s":   median(samples["modeled_s"]),
		}
		if first != nil {
			n50, errs, err := w.quality(st, first)
			if err != nil {
				return report{}, err
			}
			v["contig_n50_bp"], v["contig_err_per_10kb"] = float64(n50), errs
		}
		for k, x := range v {
			rep.Metrics[k] = metric{x, endToEndUnits[k]}
		}
	}
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.Correct = c.failed == 0 && first != nil
	return rep, nil
}

var endToEndUnits = map[string]string{
	"wall_s":              "s",
	"setup_s":             "s",
	"peak_rss_mb":         "MiB",
	"alloc_mb":            "MiB",
	"modeled_s":           "s",
	"contig_n50_bp":       "bp",
	"contig_err_per_10kb": "1/10kb",
}

// measure runs one assembly with the heap returned to the OS
// beforehand, and returns its end-to-end metrics.
func (w workload) measure(in *input, pr *probes) (*outcome, map[string]float64, error) {
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o, err := w.assemble(in, pr)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	return o, map[string]float64{
		"wall_s":    o.wall,
		"alloc_mb":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib,
		"modeled_s": o.modeled,
	}, nil
}

// traceReport adds the serial decomposition (run twice, so its exact
// counts can be compared) and the overhead to the traced run's
// samples, and fills m with every per-layer median.
func (w workload) traceReport(st *state, c *checker, samples map[string][]float64, m map[string]metric) error {
	var runs []*decomposition
	for i := 0; i < 2; i++ {
		d, err := w.decompose(st.in)
		if err == nil {
			err = partitionProblem(d.labels, st.oracle, "serial decomposition vs cluster.Serial")
		}
		c.op(err)
		if err != nil {
			continue
		}
		runs = append(runs, d)
		for k, v := range d.metrics {
			samples[k] = append(samples[k], v)
		}
	}
	if len(runs) == 2 {
		a, b := runs[0], runs[1]
		if a.chars != b.chars || a.pairs != b.pairs || a.cells != b.cells {
			c.failed++
			fmt.Fprintf(os.Stderr, "perfbench: work counts did not repeat: chars %d/%d pairs %d/%d cells %d/%d\n",
				a.chars, b.chars, a.pairs, b.pairs, a.cells, b.cells)
		}
	}
	if len(samples["wall_traced"]) == 0 || len(samples["wall_s"]) == 0 || len(runs) == 0 {
		return errors.New("no traced assembly or decomposition completed")
	}
	samples["trace.overhead_frac"] = []float64{median(samples["wall_traced"])/median(samples["wall_s"]) - 1}
	samples["cluster.aligned_vs_serial"] = []float64{median(samples["cluster.aligned"]) / median(samples["cluster.serial_aligned"])}
	for _, pm := range perLayer {
		v, ok := samples[pm.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
		m[pm.name] = metric{median(v), pm.unit}
	}
	return nil
}

// quality measures the contigs of the first run against the simulated
// genome. For wgs-ooc, which stops at the partition, the partition is
// assembled once here, outside the measured time.
func (w workload) quality(st *state, o *outcome) (n50 int, errPer10kb float64, err error) {
	frags, _ := preprocess.Run(st.in.reads, st.in.pre)
	store := seq.NewStore(frags)
	contigSets := o.contigs
	if w.skipAssembly {
		contigSets = assembly.AssembleAll(store, o.clusters, assembly.DefaultConfig(), assemblyWorkers)
	}
	var contigs []assembly.Contig
	var lens []int
	total := 0
	for _, cs := range contigSets {
		for _, c := range cs {
			contigs = append(contigs, c)
			if len(c.Reads) >= 2 {
				lens = append(lens, len(c.Bases))
				total += len(c.Bases)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	acc := 0
	for _, l := range lens {
		if acc += l; 2*acc >= total {
			n50 = l
			break
		}
	}
	if n50 == 0 {
		return 0, 0, errors.New("no contig was assembled from two or more reads")
	}
	return n50, validate.Contigs(store, contigs, st.in.genomes).ErrorsPer10kb, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the
// current RSS, so the next peakRSS covers only what follows.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset peak RSS, peak_rss_mb covers the whole process: %v\n", err)
	}
}

// peakRSS reads VmHWM from /proc/self/status, in bytes.
func peakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}
