package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"regexp"
	rtmetrics "runtime/metrics"
	"time"
)

// Calibration. On the shared host this benchmark is tuned on, the speed
// of code like the simulator's (large code footprint, branchy, cache
// bound) swings about twofold with other tenants' load, and holds one
// speed for seconds to minutes, often for a whole run. A tight
// arithmetic loop or a DRAM pointer chase does not move. Code from Go's
// standard library that is as front-end heavy as the simulator moves
// with it: over 2- to 3-second windows this kernel's time correlated
// with the engine's at 0.83-0.96.
//
// So every run times a fixed kernel, in short slices interleaved with
// its units of work, and reports host times in reference seconds: each
// pass's (or set-up's) time is scaled by calRef over the mean slice
// time measured inside it. A change to the program does not touch the
// kernel, so it shows in full; a change in the host's speed moves both
// and cancels. DESIGN.md, "Noise", has the measurements.

// calRef is the kernel slice's reference time, about its median on the
// 2-vCPU host the benchmark was tuned on. It only sets the scale of the
// reported times.
const calRef = 7 * time.Millisecond

// calEvery is how much unit time passes between two slices.
const calEvery = 200 * time.Millisecond

// calKernel is the fixed work of one slice: a JSON round trip, a
// regular-expression scan and a flate compression of fixed inputs.
type calKernel struct {
	records []calRecord
	text    string
	re      *regexp.Regexp
	fw      *flate.Writer
	buf     bytes.Buffer
	sink    int
}

type calRecord struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Tags  []string          `json:"tags"`
	Attrs map[string]string `json:"attrs"`
	Score float64           `json:"score"`
}

func newCalKernel() *calKernel {
	k := &calKernel{re: regexp.MustCompile(`(\w+)@(\w+)\.(com|org|net)|[0-9]{3}-[0-9]{4}`)}
	for i := 0; i < 300; i++ {
		k.records = append(k.records, calRecord{ID: i, Name: fmt.Sprintf("name-%d", i),
			Tags: []string{"a", "bb", "ccc"}, Attrs: map[string]string{"k": "v", "i": fmt.Sprint(i)}, Score: float64(i) * 1.5})
	}
	var tb bytes.Buffer
	s := uint64(5)
	for tb.Len() < 24<<10 {
		s = s*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&tb, "user%d@host%d.com call 555-%04d word%d ", s%1000, s%77, s%10000, s%313)
	}
	k.text = tb.String()
	k.fw, _ = flate.NewWriter(&k.buf, 6)
	return k
}

func (k *calKernel) run() {
	data, _ := json.Marshal(k.records)
	var back []calRecord
	_ = json.Unmarshal(data, &back)
	k.sink += len(back)
	k.sink += len(k.re.FindAllStringIndex(k.text, -1))
	k.buf.Reset()
	k.fw.Reset(&k.buf)
	_, _ = k.fw.Write([]byte(k.text))
	_ = k.fw.Close()
	k.sink += k.buf.Len()
}

// calibrator interleaves kernel slices with a workload's units. The
// harness opens a window around each set-up and pass; the workload
// reports each unit's host time with after, which runs a slice once
// calEvery of unit time has gone by. Every window holds at least one
// slice, taken when it opens.
type calibrator struct {
	k      *calKernel
	tr     *Tracer
	parent int
	due    time.Duration
	total  time.Duration // slice time in the open window
	n      int           // slices in the open window
	allocs uint64        // heap bytes the slices allocated in the open window
}

func newCalibrator() *calibrator {
	c := &calibrator{k: newCalKernel(), parent: -1}
	c.k.run() // warm the kernel's lazily built state
	return c
}

// open starts a window; slices get spans under parent when tr is set.
func (c *calibrator) open(tr *Tracer, parent int) {
	c.tr, c.parent = tr, parent
	c.total, c.n, c.allocs, c.due = 0, 0, 0, calEvery
	c.slice()
}

// under makes later slices children of parent, the span the units
// run in.
func (c *calibrator) under(parent int) { c.parent = parent }

// after accounts one unit of d host time, and runs a slice when due.
func (c *calibrator) after(d time.Duration) {
	c.due -= d
	if c.due <= 0 {
		c.slice()
		c.due = calEvery
	}
}

func (c *calibrator) slice() {
	a0 := heapBytes()
	id := c.tr.Begin(c.parent, "harness", "calibrate", "")
	t0 := time.Now()
	c.k.run()
	c.total += time.Since(t0)
	c.tr.End(id)
	c.n++
	c.allocs += heapBytes() - a0
}

// factor converts the open window's host seconds to reference seconds.
func (c *calibrator) factor() float64 {
	return calRef.Seconds() / (c.total.Seconds() / float64(c.n))
}

// heapBytes returns the bytes the process has allocated on the heap so
// far, without stopping the world.
func heapBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
