// Command tracecheck validates a Chrome trace-event JSON file produced
// by `regless -trace`: the file must parse, carry the run's metadata,
// contain at least one complete ("X") span with a duration — the minimum
// for Perfetto to render something useful — and put every span on a track
// a thread_name record names (a span filed under another tid than the one
// that was named renders on an anonymous row beside an empty named one).
// scripts/check.sh runs it as the trace-schema smoke test.
//
// Usage: go run ./scripts/tracecheck FILE
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type traceFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Bench  string `json:"bench"`
		Scheme string `json:"scheme"`
		Cycles uint64 `json:"cycles"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck FILE")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	fatal(err)
	var tf traceFile
	fatal(json.Unmarshal(data, &tf))

	if tf.OtherData.Bench == "" || tf.OtherData.Scheme == "" {
		die("otherData missing bench/scheme: %+v", tf.OtherData)
	}
	if len(tf.TraceEvents) == 0 {
		die("no trace events")
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
				die("%s event without a name at ts %v", ev.Ph, ev.Ts)
			}
			if ev.Ph == "X" && ev.Dur < 1 {
				die("X event %q has dur %v < 1", ev.Name, ev.Dur)
			}
			if !named[track{ev.Pid, ev.Tid}] {
				die("%s event %q at ts %v sits on pid %d tid %d, which no thread_name record names",
					ev.Ph, ev.Name, ev.Ts, ev.Pid, ev.Tid)
			}
			spans++
		case "C":
			counters++
		case "M":
			metas++
		case "i":
		default:
			die("unknown phase %q on event %q", ev.Ph, ev.Name)
		}
	}
	if spans == 0 {
		die("no spans")
	}
	if metas == 0 {
		die("no metadata (M) events: tracks would be unnamed")
	}
	fmt.Printf("tracecheck: %s ok — %d events (%d spans, %d counter samples) for %s/%s\n",
		os.Args[1], len(tf.TraceEvents), spans, counters, tf.OtherData.Bench, tf.OtherData.Scheme)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}
