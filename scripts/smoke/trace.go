package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/events"
)

// checkTraceFile validates a Chrome trace-event JSON file produced by
// `regless -trace`: the file must parse, carry the run's metadata, contain
// at least one complete ("X") span with a duration — the minimum for
// Perfetto to render something useful — and put every span on a track a
// thread_name record names (a span filed under another tid than the one
// that was named renders on an anonymous row beside an empty named one).
func checkTraceFile(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var tf struct {
		OtherData struct {
			Bench  string `json:"bench"`
			Scheme string `json:"scheme"`
		} `json:"otherData"`
		TraceEvents []events.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		fail("%v", err)
	}
	if tf.OtherData.Bench == "" || tf.OtherData.Scheme == "" {
		fail("otherData missing bench/scheme: %+v", tf.OtherData)
	}
	if len(tf.TraceEvents) == 0 {
		fail("no trace events")
	}
	type track struct{ pid, tid int }
	named := map[track]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			named[track{ev.Pid, ev.Tid}] = true
		}
	}
	var spans, counters, metas int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X", "B", "E":
			if ev.Name == "" {
				fail("%s event without a name at ts %v", ev.Ph, ev.Ts)
			}
			if ev.Ph == "X" && ev.Dur < 1 {
				fail("X event %q has dur %v < 1", ev.Name, ev.Dur)
			}
			if !named[track{ev.Pid, ev.Tid}] {
				fail("%s event %q at ts %v sits on pid %d tid %d, which no thread_name record names",
					ev.Ph, ev.Name, ev.Ts, ev.Pid, ev.Tid)
			}
			spans++
		case "C":
			counters++
		case "M":
			metas++
		case "i":
		default:
			fail("unknown phase %q on event %q", ev.Ph, ev.Name)
		}
	}
	if spans == 0 {
		fail("no spans")
	}
	if metas == 0 {
		fail("no metadata (M) events: tracks would be unnamed")
	}
	fmt.Printf("%s: %s — %d events (%d spans, %d counter samples) for %s/%s\n",
		who, path, len(tf.TraceEvents), spans, counters, tf.OtherData.Bench, tf.OtherData.Scheme)
}
