package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime/debug"
	"sort"
)

// runSet is a recorded set of runs: workload → metric → one value per
// run. baseline.json in this directory is one, recorded at the commit
// that added the benchmark.
type runSet map[string]map[string][]float64

func loadRunSet(path string) (runSet, error) {
	var s runSet
	return s, readJSON(path, &s)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// contract is BENCHMARK.json as far as this program reads it.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadContract(path string) (*contract, error) {
	var c contract
	return &c, readJSON(path, &c)
}

// repeatRuns runs the workload n times in this process, with seeds
// seed, seed+1, ..., prints each end-to-end metric's median, quartiles
// and spread, optionally merges the set into a file, and optionally
// compares it with a recorded set by the bounds in BENCHMARK.json (read
// from the working directory, the repo root). It exits non-zero when a
// run fails an operation or a median is worse than the recorded one by
// more than its bound.
func repeatRuns(ctx context.Context, w *workload, seed int64, seconds, n int, out, against string, stdout, stderr io.Writer) int {
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		res, err := runOnce(ctx, w, seed+int64(i), seconds, false, "", io.Discard, stderr)
		if err == nil && !res.Correct {
			err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: run %d (seed %d): %v\n", i+1, seed+int64(i), err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stderr, "benchmark: %s run %d/%d done\n", w.name, i+1, n)
		// Give the next run the heap a fresh process would have.
		debug.FreeOSMemory()
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d, seconds=%d\n", w.name, n, seed, seed+int64(n)-1, seconds)
	fmt.Fprintf(stdout, "%-22s %-4s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q3 := quartiles(v)
		fmt.Fprintf(stdout, "%-22s %-4s %12.6g %12.6g %12.6g %7.2f%%\n",
			name, units[name], median(v), q1, q3, 100*spread(v))
	}

	if out != "" {
		set, err := loadRunSet(out)
		if errors.Is(err, fs.ErrNotExist) {
			set, err = runSet{}, nil
		}
		if err == nil {
			set[w.name] = values
			var data []byte
			if data, err = json.MarshalIndent(set, "", " "); err == nil {
				err = os.WriteFile(out, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: recording the set: %v\n", err)
			return 1
		}
	}
	if against == "" {
		return 0
	}
	base, err := loadRunSet(against)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return compareSets(w.name, values, base[w.name], c, stdout)
}

// compareSets prints, per end-to-end metric, the two sets' medians and
// their relative difference, in the metric's worse direction, against
// its bound.
func compareSets(name string, cur, base map[string][]float64, c *contract, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "# %s against the recorded set\n", name)
	fmt.Fprintf(stdout, "%-22s %12s %12s %8s %7s  %s\n", "metric", "recorded", "this", "diff", "bound", "verdict")
	for _, m := range c.EndToEnd {
		b, v := base[m.Name], cur[m.Name]
		if len(b) == 0 || len(v) == 0 {
			fmt.Fprintf(stdout, "%-22s missing from one of the sets\n", m.Name)
			code = 1
			continue
		}
		diff := (median(v) - median(b)) / median(b)
		if m.Better == "higher" {
			diff = -diff
		}
		verdict := "within bound"
		switch {
		case diff > m.Bound:
			verdict = "WORSE"
			code = 1
		case diff < -m.Bound:
			verdict = "better"
		}
		fmt.Fprintf(stdout, "%-22s %12.6g %12.6g %+7.2f%% %6.0f%%  %s\n",
			m.Name, median(b), median(v), 100*diff, 100*m.Bound, verdict)
	}
	return code
}
