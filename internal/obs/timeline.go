package obs

import (
	"fmt"
	"io"
	"sort"

	"dynamo/internal/memory"
	"dynamo/internal/sim"
)

// Timeline buffers lifecycle events and occupancy spans for export as a
// Chrome trace-event JSON file (the format ui.perfetto.dev and
// chrome://tracing open natively). Simulated cycles are written as
// microsecond timestamps, so 1 cycle renders as 1 us.
//
// Track layout: one Perfetto "process" per component group (cores, home
// nodes, NoC links, HBM channels) with one named "thread" per component.
// Transactions are emitted as nestable async slices anchored to the
// requesting core's track — the outer slice is the transaction class, the
// nested slices its phases — and occupancy spans as complete ("X") slices
// on their component's track.
type Timeline struct {
	txns  map[TxnID]*tlTxn
	order []TxnID
	spans []tlSpan
}

type tlTxn struct {
	class  Class
	addr   memory.Addr
	core   int
	begin  sim.Tick
	end    sim.Tick
	ended  bool
	phases []phaseRec
}

type tlSpan struct {
	track Track
	name  string
	start sim.Tick
	dur   sim.Tick
}

func newTimeline() *Timeline {
	return &Timeline{txns: make(map[TxnID]*tlTxn)}
}

func (tl *Timeline) begin(id TxnID, now sim.Tick, class Class, addr memory.Addr, core int) {
	tl.txns[id] = &tlTxn{
		class: class, addr: addr, core: core, begin: now,
		phases: []phaseRec{{PhaseIssue, now}},
	}
	tl.order = append(tl.order, id)
}

func (tl *Timeline) reclass(id TxnID, class Class) {
	if t, ok := tl.txns[id]; ok {
		t.class = class
	}
}

func (tl *Timeline) phase(id TxnID, now sim.Tick, ph Phase) {
	if t, ok := tl.txns[id]; ok && !t.ended {
		t.phases = append(t.phases, phaseRec{ph, now})
	}
}

func (tl *Timeline) end(id TxnID, now sim.Tick) {
	if t, ok := tl.txns[id]; ok && !t.ended {
		t.end = now
		t.ended = true
	}
}

func (tl *Timeline) span(track Track, name string, start, dur sim.Tick) {
	tl.spans = append(tl.spans, tlSpan{track: track, name: name, start: start, dur: dur})
}

// pid maps a track group to its Perfetto process id (0 is reserved).
func pid(g TrackGroup) int { return int(g) + 1 }

// trackName labels one timeline row.
func trackName(t Track) string {
	switch t.Group {
	case TrackCore:
		return fmt.Sprintf("core %d", t.ID)
	case TrackHN:
		return fmt.Sprintf("hn %d", t.ID)
	case TrackNoC:
		// Link tracks encode node*4+direction (see package noc).
		return fmt.Sprintf("link n%d.%s", t.ID/4, [4]string{"E", "W", "N", "S"}[t.ID%4])
	case TrackHBM:
		return fmt.Sprintf("channel %d", t.ID)
	}
	return fmt.Sprintf("track %d.%d", t.Group, t.ID)
}

// WriteTimeline exports the buffered timeline as Chrome trace-event JSON.
// The output is byte-identical for identical runs: transactions are written
// in begin order, spans in publish order, and track metadata in sorted
// track order. It returns an error if the bus is nil or was built without
// Options.Timeline.
func (b *Bus) WriteTimeline(w io.Writer) error {
	if b == nil || b.timeline == nil {
		return fmt.Errorf("obs: timeline collection is not enabled")
	}
	return b.timeline.write(w)
}

func (tl *Timeline) write(w io.Writer) error {
	te := NewTraceEvents(w)
	emit := te.Emit

	// Track metadata: name every process and every used thread.
	used := make(map[Track]bool)
	for _, id := range tl.order {
		used[Track{TrackCore, tl.txns[id].core}] = true
	}
	for _, s := range tl.spans {
		used[s.track] = true
	}
	tracks := make([]Track, 0, len(used))
	for t := range used {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].Group != tracks[j].Group {
			return tracks[i].Group < tracks[j].Group
		}
		return tracks[i].ID < tracks[j].ID
	})
	lastGroup := -1
	for _, t := range tracks {
		if int(t.Group) != lastGroup {
			lastGroup = int(t.Group)
			emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"%s"}}`,
				pid(t.Group), t.Group)
			emit(`{"ph":"M","name":"process_sort_index","pid":%d,"tid":0,"args":{"sort_index":%d}}`,
				pid(t.Group), pid(t.Group))
		}
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"%s"}}`,
			pid(t.Group), t.ID, trackName(t))
		emit(`{"ph":"M","name":"thread_sort_index","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
			pid(t.Group), t.ID, t.ID)
	}

	// Transactions: nestable async slices on the requestor's core track.
	for _, id := range tl.order {
		t := tl.txns[id]
		p, tid := pid(TrackCore), t.core
		emit(`{"ph":"b","cat":"txn","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%d,"args":{"addr":"%#x"}}`,
			id, t.class, p, tid, t.begin, uint64(t.addr))
		for i, ph := range t.phases {
			until := t.end
			if i+1 < len(t.phases) {
				until = t.phases[i+1].start
			} else if !t.ended {
				until = ph.start // unfinished at run end: zero-length tail
			}
			emit(`{"ph":"b","cat":"txn","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%d}`,
				id, ph.ph, p, tid, ph.start)
			emit(`{"ph":"e","cat":"txn","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%d}`,
				id, ph.ph, p, tid, until)
		}
		if t.ended {
			emit(`{"ph":"e","cat":"txn","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%d}`,
				id, t.class, p, tid, t.end)
		}
	}

	// Occupancy spans: complete slices on their component track.
	for _, s := range tl.spans {
		emit(`{"ph":"X","cat":"span","name":"%s","pid":%d,"tid":%d,"ts":%d,"dur":%d}`,
			s.name, pid(s.track.Group), s.track.ID, s.start, s.dur)
	}

	return te.Close()
}
