// Command perfbench is helium's benchmark of record.  It drives the
// system only through public package functions, from outside, on four
// workloads:
//
//   - lift-corpus: lift, verify and regenerate the legacy corpus at 64x48;
//   - lift-fuzz: fuzzgen.Run over a seed range of freshly generated binaries;
//   - serve-small, serve-large: a closed loop of 2 connections POSTing
//     client pixels to an in-process server at 48x32 and 512x384.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	bash perfbench/run.sh compare A.json B.json
//
// --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs an
// untraced and then a traced segment, reports per-layer metrics timed
// around each layer call plus the instruments the program already has
// (lift phase spans, the serve access log), checks that the parts add up
// to the whole, and reports the tracing overhead; layers the workload
// never calls are measured by short probes (probe.go), so every traced
// run reports every per-layer metric.  Every op checks its output; the
// result line carries exactly the metrics BENCHMARK.json lists for the
// run's kind, and is the last stdout line.
//
// `go test` in this directory checks that the counts later changes may
// cite (lift trace and sample counts, fuzz verdicts) repeat exactly at a
// seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"helium/internal/schedule"
)

// opts is one run's settings.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// workload is one named input set and the closed loop that drives it.
type workload struct {
	geometry string
	conns    int
	run      func(o opts) (*report, error)
}

var workloads = map[string]workload{
	"lift-corpus": {geometry: fmt.Sprintf("%dx%d", corpusW, corpusH), conns: 1, run: runLiftCorpus},
	"lift-fuzz":   {geometry: "fuzzgen", conns: 1, run: runLiftFuzz},
	"serve-small": {geometry: "48x32", conns: serveConns, run: func(o opts) (*report, error) { return runServe(o, 48, 32, 3) }},
	"serve-large": {geometry: "512x384", conns: serveConns, run: func(o opts) (*report, error) { return runServe(o, 512, 384, 1) }},
}

// config stamps a result with everything that must match for two
// results to be comparable.  Commit and Source name the code measured
// and are expected to differ between the two sides of a comparison.
type config struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Geometry   string `json:"geometry"`
	Conns      int    `json:"connections"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Machine is the host's schedule machine key; SchedulesMachine is the
	// key schedules.json was tuned on.
	Machine          string `json:"machine_key"`
	SchedulesMachine string `json:"schedules_machine_key"`
	Commit           string `json:"commit"`
	Source           string `json:"source_sha256"`
}

// record is the full output of one run, written by --out for compare.
type record struct {
	Config config  `json:"config"`
	Result result  `json:"result"`
	Report *report `json:"report"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: lift-corpus, lift-fuzz, serve-small or serve-large")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed phase length")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the full record (config, result, notes) to this file")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	cfg, err := stamp(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := w.run(opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		if err := fillLayers(rep, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := conform(rep, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep.Notes["failed_frac"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	res := result{
		Correct:   rep.Failed == 0 && len(rep.Problems) == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.Metrics,
	}
	cj, _ := json.Marshal(cfg)
	nj, _ := json.Marshal(rep.Notes)
	fmt.Printf("config %s\nnotes %s\n", cj, nj)
	if *out != "" {
		data, _ := json.MarshalIndent(record{Config: cfg, Result: res, Report: rep}, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

// stamp builds the run's config.  It fails when the checkout does not
// hold the sources the benchmark measures.
func stamp(name string, w workload, seed uint64, seconds int, trace bool) (config, error) {
	sum, err := sourceDigest()
	if err != nil {
		return config{}, fmt.Errorf("hashing the measured sources: %w", err)
	}
	cfg := config{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Geometry: w.geometry, Conns: w.conns,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Machine: schedule.HostMachineKey(), Commit: "unknown", Source: sum,
	}
	if set, err := schedule.Load("schedules.json"); err == nil {
		cfg.SchedulesMachine = set.Machine
	} else {
		return config{}, err
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				cfg.Commit = s.Value
			}
		}
	}
	return cfg, nil
}

// sourceDigest hashes the program's sources (go.mod, cmd/, internal/,
// schedules.json), so two results name the code they measured even
// where no version control is present.
func sourceDigest() (string, error) {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return "", err
		}
	}
	files = append(files, "go.mod", "schedules.json")
	slices.Sort(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// compareMain prints the metric deltas between two --out records and
// refuses (exit 2) when their configs differ in anything but the code
// measured.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", p, err)
			return 2
		}
	}
	if err := comparable(recs[0].Config, recs[1].Config); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", err)
		return 2
	}
	a, b := recs[0].Result.Metrics, recs[1].Result.Metrics
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		delta := (b[k].Value - a[k].Value) / a[k].Value * 100
		fmt.Printf("%-44s %14.4f %14.4f %+8.2f%%  %s\n", k, a[k].Value, b[k].Value, delta, a[k].Unit)
	}
	return 0
}

// comparable reports the config fields, other than the code measured,
// on which two results differ.
func comparable(a, b config) error {
	a.Commit, a.Source, b.Commit, b.Source = "", "", "", ""
	if a == b {
		return nil
	}
	var diffs []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); fa != fb {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", va.Type().Field(i).Tag.Get("json"), fa, fb))
		}
	}
	return errors.New("configs differ: " + strings.Join(diffs, "; "))
}
