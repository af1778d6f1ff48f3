package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"dynamo/internal/obs"
)

// recorder keeps benchmark-side spans in memory and writes them at exit
// as a Chrome trace-event document. A nil recorder records nothing, so
// untraced runs pay one nil check per span site.
type recorder struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary. Spans of one job share
// its digest (or name) in args; a span's parent is the enclosing span on
// the same track.
type span struct {
	track, cat, name string
	start, end       time.Time
	args             []string // key, value pairs
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// add records a span on a track (one Perfetto thread per track).
func (r *recorder) add(track, cat, name string, start, end time.Time, args ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{track: track, cat: cat, name: name, start: start, end: end, args: args})
	r.mu.Unlock()
}

// write renders every span to path in the obs trace-event format.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	te := obs.NewTraceEvents(f)
	const pid = 1
	te.Emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"perfbench"}}`, pid)
	tids := map[string]int{}
	for _, s := range r.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			te.Emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, s.track)
		}
		args := "{"
		for i := 0; i+1 < len(s.args); i += 2 {
			if i > 0 {
				args += ","
			}
			args += fmt.Sprintf("%q:%q", s.args[i], s.args[i+1])
		}
		args += "}"
		te.Emit(`{"ph":"X","cat":%q,"name":%q,"pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":%s}`,
			s.cat, s.name, pid, tid, s.start.Sub(r.start).Microseconds(), s.end.Sub(s.start).Microseconds(), args)
	}
	if err := te.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
