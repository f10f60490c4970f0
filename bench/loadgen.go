package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dhsketch"
)

// pool holds a family's names and hashed identifiers, computed once in
// set-up so that the lanes spend the window sending, not hashing.
type pool struct {
	fam       family
	names     []string
	metricIDs []uint64
	itemIDs   [][]uint64
}

func newPool(f family, seed uint64) *pool {
	p := &pool{fam: f}
	for j := 0; j < f.metrics; j++ {
		name := f.metricName(j)
		p.names = append(p.names, name)
		p.metricIDs = append(p.metricIDs, dhsketch.MetricID(name))
		ids := make([]uint64, f.items)
		for i := range ids {
			ids[i] = dhsketch.ItemID(f.itemLabel(seed, j, i))
		}
		p.itemIDs = append(p.itemIDs, ids)
	}
	return p
}

// errStats accumulates the relative error of one metric's answers.
type errStats struct {
	sum float64
	n   int
}

// relErrs holds the relative error of every answer, by metric name.
type relErrs map[string]*errStats

// observe records one estimate against the true cardinality.
func (r relErrs) observe(metric string, est, truth float64) {
	s := r[metric]
	if s == nil {
		s = &errStats{}
		r[metric] = s
	}
	s.sum += math.Abs(est-truth) / truth
	s.n++
}

// mean is the relative error averaged first within each metric and then
// across metrics, so that a hot metric's one cached estimate does not
// stand for the whole system; answers is how many estimates went in.
func (r relErrs) mean() (relErr float64, answers int) {
	var perMetric []float64
	for _, s := range r {
		perMetric = append(perMetric, s.sum/float64(s.n))
		answers += s.n
	}
	sort.Float64s(perMetric) // a fixed summation order, whatever the map's
	return mean(perMetric), answers
}

// laneResult is what one lane measured.
type laneResult struct {
	samples   []sample
	lag       []float64 // ms, open loop: how late each operation was sent
	attempted int
	failed    int
	relErr    relErrs
	// acked marks the (metric, item) pairs of famWrite this lane had
	// acknowledged, warm-up included: the harness's own ground truth.
	acked [][]bool
}

// lane is one generator goroutine.
type lane struct {
	gen    *opGen
	pools  map[string]*pool
	hc     *http.Client
	base   string // dhsd's URL
	writer *ringClient
	res    laneResult
}

func newLane(seed uint64, idx int, spec laneSpec, pools map[string]*pool, dhsdAddr string, w *ringClient) *lane {
	l := &lane{
		gen:    newOpGen(seed, idx, spec),
		pools:  pools,
		hc:     &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base:   "http://" + dhsdAddr,
		writer: w,
	}
	l.res.relErr = relErrs{}
	l.res.acked = make([][]bool, famWrite.metrics)
	for j := range l.res.acked {
		l.res.acked[j] = make([]bool, famWrite.items)
	}
	return l
}

// parseCount extracts the estimate and the degraded flag from a /count
// body without a JSON decoder: the body is the canonical CountResult
// encoding, and on the cache-hit workload the generator competes with
// dhsd for the same two cores.
func parseCount(body []byte) (est float64, degraded, ok bool) {
	const key = `"estimate":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false, false
	}
	rest := body[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false, false
	}
	est, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return 0, false, false
	}
	switch {
	case bytes.Contains(body, []byte(`"degraded":true`)):
		return est, true, true
	case bytes.Contains(body, []byte(`"degraded":false`)):
		return est, false, true
	}
	return 0, false, false
}

// httpCount asks a dhsd at base for one estimate. Anything but a 200
// with a non-degraded body is a failed operation: transport errors, 429
// sheds, 502s, and estimates the ring flagged as resting on partial
// evidence.
func httpCount(hc *http.Client, base, metric string) (float64, error) {
	resp, err := hc.Get(base + "/count?metric=" + metric)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/count?metric=%s: %s", metric, resp.Status)
	}
	est, degraded, ok := parseCount(body)
	if !ok {
		return 0, fmt.Errorf("/count?metric=%s: unexpected body %q", metric, body)
	}
	if degraded {
		return 0, fmt.Errorf("/count?metric=%s: degraded estimate", metric)
	}
	return est, nil
}

// run drives the lane from start: operations due before measureFrom are
// warm-up and leave no latency sample; the lane stops at the first
// operation due at or after end.
func (l *lane) run(start, measureFrom, end time.Time, firstErr *errOnce) {
	open := l.gen.spec.rate > 0
	for {
		o := l.gen.next()
		due := time.Now()
		if open {
			due = start.Add(o.due)
		}
		if !due.Before(end) {
			return
		}
		var lag time.Duration
		if open {
			sleepUntil(due)
			lag = time.Since(due)
		}
		p := l.pools[o.fam.prefix]
		var err error
		var est float64
		if o.kind == opCount {
			est, err = httpCount(l.hc, l.base, p.names[o.metric])
		} else {
			err = l.writer.insert(p.metricIDs[o.metric], p.itemIDs[o.metric][o.item])
			if err == nil && o.fam.prefix == famWrite.prefix {
				l.res.acked[o.metric][o.item] = true
			}
		}
		done := time.Now()
		if due.Before(measureFrom) {
			continue
		}
		l.res.attempted++
		if err != nil {
			l.res.failed++
			firstErr.set(err)
			continue
		}
		l.res.samples = append(l.res.samples, sample{at: done.Sub(measureFrom), lat: ms(done.Sub(due)), kind: o.kind})
		if open {
			l.res.lag = append(l.res.lag, ms(lag))
		}
		if o.kind == opCount {
			// Every counted metric is from famRead, whose truth is fixed.
			l.res.relErr.observe(p.names[o.metric], est, float64(o.fam.items))
		}
	}
}

// sleepUntil blocks the calling thread until t. time.Sleep will not do
// for a schedule with sub-millisecond gaps: an otherwise idle Go
// process waits for its timers in epoll_wait, in whole milliseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // cut short by a signal: the loop sleeps the rest
	}
}

// errOnce keeps the first error of many goroutines, for the report.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// windowResult is the lanes' measurements merged.
type windowResult struct {
	samples   []sample
	lat       [2][]float64 // ms by opKind, ascending
	lag       []float64    // ms, ascending
	attempted int
	failed    int
	relErr    relErrs
	truthW    []int // distinct acknowledged items per w-* metric
}

func mergeLanes(ls []*lane) *windowResult {
	w := &windowResult{relErr: relErrs{}, truthW: make([]int, famWrite.metrics)}
	for _, l := range ls {
		r := &l.res
		w.samples = append(w.samples, r.samples...)
		for _, s := range r.samples {
			w.lat[s.kind] = append(w.lat[s.kind], s.lat)
		}
		w.lag = append(w.lag, r.lag...)
		w.attempted += r.attempted
		w.failed += r.failed
		for name, s := range r.relErr {
			t := w.relErr[name]
			if t == nil {
				t = &errStats{}
				w.relErr[name] = t
			}
			t.sum += s.sum
			t.n += s.n
		}
	}
	for j := range w.truthW {
		for i := 0; i < famWrite.items; i++ {
			for _, l := range ls {
				if l.res.acked[j][i] {
					w.truthW[j]++
					break
				}
			}
		}
	}
	for k := range w.lat {
		sort.Float64s(w.lat[k])
	}
	sort.Float64s(w.lag)
	return w
}
