package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type seriesKey struct{ workload, name string }

// readRecords collects the metric records of a file of benchmark
// output — any number of runs, concatenated — by workload and metric.
// Summary lines and anything else that is not a record are skipped.
func readRecords(path string) (map[seriesKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[seriesKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Name == "" || r.Workload == "" {
			continue
		}
		k := seriesKey{r.Workload, r.Name}
		out[k] = append(out[k], r.Value)
	}
	return out, sc.Err()
}

// compare prints one row per (workload, metric) present in both files:
// the median of each side, the change, and for end-to-end metrics the
// bound. It reports whether any end-to-end metric got worse by more than
// its bound, as a share of the first file's median.
func compare(w io.Writer, s *spec, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	var keys []seriesKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false, fmt.Errorf("%s and %s share no (workload, metric) pair", pathA, pathB)
	}
	order := map[string]int{}
	defs := map[string]specMetric{}
	for i, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		order[m.Name] = i
		defs[m.Name] = m
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return order[keys[i].name] < order[keys[j].name]
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tchange\tbound\tverdict")
	for _, k := range keys {
		d := defs[k.name]
		ma, mb := median(a[k]), median(b[k])
		change := ratio(mb-ma, ma)
		worse := change
		if d.Better == "higher" {
			worse = -change
		}
		bound, verdict := "-", ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			verdict = "ok"
			if worse > d.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\n", k.workload, k.name, d.Unit, ma, mb, 100*change, bound, verdict)
	}
	return regressed, tw.Flush()
}
