package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own calls into the
// simulator. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
}

// spans keeps every span in memory until the benchmark ends. A nil
// *spans records nothing, so untraced runs pass nil.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// add records one span and returns its index.
func (s *spans) add(name string, start, end time.Time, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Start: start, End: end, Parent: parent})
	return len(s.list) - 1
}

// writeChrome writes the spans as Chrome Trace Event Format complete
// events (loadable in Perfetto), each carrying its own and its parent's
// index.
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(s.list))
	for i, sp := range s.list {
		evs[i] = event{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start.Sub(s.origin)) / 1e3,
			Dur:  float64(sp.End.Sub(sp.Start)) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]int{"id": i, "parent": sp.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
