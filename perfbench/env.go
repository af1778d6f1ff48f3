package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dynamo/perfbench/measure"
)

// env is what a workload run needs from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// smoke shrinks every workload to a fixed, tiny amount of work.
	smoke bool
	// dir is this run's scratch directory inside the checkout.
	dir    string
	spans  *recorder // nil unless tracing
	golden goldens
	log    io.Writer
}

// scratch returns a fresh directory under the run's scratch directory.
func (e *env) scratch(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-")
}

// result is what a workload measured.
type result struct {
	// setups are the durations of the repeated set-up steps, setupCPU
	// the CPU-bound part of each (nil: all of it), and setupRefMS the
	// reference kernel's median time while they ran.
	setups     []time.Duration
	setupCPU   []time.Duration
	setupRefMS float64
	win        window
	// ops are the latencies, in ms, of the operations in the window, and
	// opsCPU the CPU-bound part of each (nil: all of it); slots is how
	// many operations run at once (0 means 1).
	ops    []float64
	opsCPU []float64
	slots  int
	// attempted and failed count operations; problems lists every output
	// that failed its correctness check.
	attempted, failed int64
	problems          []string
	// digest is the tables digest of the seed's first suite pass.
	digest string
	// layers holds the per-layer metrics this workload measures itself.
	layers map[string]measure.Value
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// window is the measured interval: wall time, process CPU time, heap
// bytes allocated and garbage collection.
type window struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	// refMS is the reference kernel's median time over the window (0 when
	// the window was too short to sample it), and inline its times after
	// each sequential operation, in order.
	refMS  float64
	inline []float64
}

// speed is the host's speed relative to nominal, given the reference
// kernel's median time: below 1 on a slow stretch. CPU-bound host times
// multiply by it, rates divide by it.
func speed(refMS float64) float64 {
	if refMS <= 0 {
		return 1
	}
	return ms(refNominal) / refMS
}

// meter opens a measurement window.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	probe *speedProbe
}

// startMeter opens a window. background selects the speed probe's mode:
// a sampler goroutine, or inline samples taken with m.between.
func startMeter(background bool) *meter {
	// Garbage from set-up is collected before the window, not inside it.
	runtime.GC()
	m := &meter{cpu: cpuTime()}
	runtime.ReadMemStats(&m.mem)
	m.probe = newProbe(background)
	m.start = time.Now()
	return m
}

// between samples host speed between two sequential operations.
func (m *meter) between() { m.probe.between() }

// stop closes the window. Inline speed samples are not the workload's:
// their time comes off the window's wall and CPU time.
func (m *meter) stop() window {
	ref := m.probe.end()
	wall := time.Since(m.start) - m.probe.inlineTime
	cpu := cpuTime() - m.probe.inlineTime
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return window{
		wall:       wall,
		cpu:        cpu - m.cpu,
		allocBytes: end.TotalAlloc - m.mem.TotalAlloc,
		gcCycles:   end.NumGC - m.mem.NumGC,
		gcPause:    time.Duration(end.PauseTotalNs - m.mem.PauseTotalNs),
		refMS:      ref,
		inline:     m.probe.inline,
	}
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// done reports whether a window that started at start has run its length.
func (e *env) done(start time.Time) bool { return time.Since(start) >= e.seconds }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

//go:embed golden.json
var builtinGolden []byte

// goldens maps a suite ("quick" or "smoke") and seed to the sha256 of the
// tables dynamo-experiments prints for it.
type goldens map[string]map[string]string

// lookup returns the golden digest for a suite and seed, if recorded.
func (g goldens) lookup(suite string, seed int64) (string, bool) {
	d, ok := g[suite][strconv.FormatInt(seed, 10)]
	return d, ok
}

func loadGolden(path string) (goldens, error) {
	data := builtinGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var doc struct {
		Tables goldens `json:"tables_sha256"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return doc.Tables, nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
