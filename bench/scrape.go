package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// samples is one parsed Prometheus text exposition: the series as
// written (`name` or `name{k="v",...}`) to its value. The benchmark
// looks series up by the exact spelling internal/metrics emits, so a
// renamed series or label reads 0 and the quick test fails on it.
type samples map[string]float64

// parseProm reads the text exposition format, version 0.0.4, as
// internal/metrics writes it: comment lines skipped, one
// `series value` pair per line, no timestamps.
func parseProm(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sub returns s − before, series by series.
func (s samples) sub(before samples) samples {
	d := make(samples, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// add sums other into s.
func (s samples) add(other samples) {
	for k, v := range other {
		s[k] += v
	}
}

// sumOf adds up every series whose spelling starts with prefix: with
// "name{", all label values of one family.
func (s samples) sumOf(prefix string) float64 {
	sum := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// histMean is the mean of a histogram's observations: _sum over _count.
// sig is the label signature without braces, "" for none.
func (s samples) histMean(name, sig string) float64 {
	if sig != "" {
		sig = "{" + sig + "}"
	}
	return ratio(s[name+"_sum"+sig], s[name+"_count"+sig])
}

// nodeStatus is the part of dhsnode's /statusz the benchmark reads.
type nodeStatus struct {
	ID          string   `json:"id"`
	Addr        string   `json:"addr"`
	Alive       bool     `json:"alive"`
	Linked      bool     `json:"linked"`
	Successors  []string `json:"successors"`
	Fingers     int      `json:"fingers"`
	StoreTuples int      `json:"store_tuples"`
	StoreBytes  int64    `json:"store_bytes"`
	Routed      int64    `json:"routed"`
	Probed      int64    `json:"probed"`
	StoreOps    int64    `json:"store_ops"`
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func scrapeMetrics(addr string) (samples, error) {
	body, err := httpGet("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

func scrapeStatus(addr string) (nodeStatus, error) {
	var st nodeStatus
	body, err := httpGet("http://" + addr + "/statusz")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /statusz of %s: %w", addr, err)
	}
	return st, nil
}

// procUsage is one process's CPU time and resident memory from
// /proc/<pid>/stat.
type procUsage struct {
	cpu time.Duration // utime + stime, all threads
	rss float64       // MiB
}

// Linux reports utime and stime in USER_HZ units, which is 100 on every
// architecture Go supports.
const clockTick = time.Second / 100

// readProc reads /proc/<pid>/stat; pid 0 is this process.
func readProc(pid int) (procUsage, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return procUsage{}, err
	}
	return parseProcStat(string(raw))
}

func parseProcStat(raw string) (procUsage, error) {
	// The command name, field 2, is parenthesised and may hold spaces;
	// the fixed fields start after the last ')'.
	i := strings.LastIndexByte(raw, ')')
	if i < 0 {
		return procUsage{}, fmt.Errorf("malformed /proc stat line %q", raw)
	}
	f := strings.Fields(raw[i+1:]) // f[0] is field 3 (state)
	if len(f) < 22 {
		return procUsage{}, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	pages, err3 := strconv.ParseInt(f[21], 10, 64) // field 24
	if err1 != nil || err2 != nil || err3 != nil {
		return procUsage{}, fmt.Errorf("non-numeric /proc stat fields in %q", raw)
	}
	return procUsage{
		cpu: time.Duration(utime+stime) * clockTick,
		rss: float64(pages) * float64(os.Getpagesize()) / (1 << 20),
	}, nil
}

// machineCPU is the first line of /proc/stat: clock ticks summed over
// all CPUs, and the part of them the hypervisor gave to someone else
// while this machine had work to run.
type machineCPU struct{ total, steal float64 }

func readMachineCPU() (machineCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return machineCPU{}, fmt.Errorf("unexpected first line of /proc/stat: %q", line)
	}
	var m machineCPU
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return machineCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m, nil
}

// available is the share of the machine's CPU time between two readings
// that was not stolen: 1 on hardware of one's own.
func (m machineCPU) available(before machineCPU) float64 {
	return 1 - ratio(m.steal-before.steal, m.total-before.total)
}
