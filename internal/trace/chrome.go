package trace

import (
	"encoding/json"
	"io"
)

// Schema versions the Chrome trace artifact so downstream tooling can
// reject files it does not understand.
const Schema = "wfe-trace/v1"

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// ts is in microseconds; scan spans use ph "B"/"E", everything else is a
// thread-scoped instant ("i").
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

type chromeTrace struct {
	Schema          string        `json:"schema"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChrome renders records (as returned by Snapshot, sorted by TS)
// as Chrome trace-event JSON with the wfe-trace/v1 schema marker.
func WriteChrome(w io.Writer, recs []Record) error {
	out := chromeTrace{
		Schema:          Schema,
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]chromeEvent, 0, len(recs)),
	}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Kind.String(),
			Ph:   "i",
			TS:   float64(r.TS) / 1e3,
			Pid:  0,
			Tid:  r.Tid,
			S:    "t",
		}
		switch r.Kind {
		case KindGuardAcquire:
			ev.Args = map[string]uint64{"source": r.A}
		case KindRetire:
			ev.Args = map[string]uint64{"handle": r.A}
		case KindScanBegin:
			ev.Name, ev.Ph, ev.S = "scan", "B", ""
			ev.Args = map[string]uint64{"backlog": r.A}
		case KindScanEnd:
			ev.Name, ev.Ph, ev.S = "scan", "E", ""
			ev.Args = map[string]uint64{"examined": r.A, "freed": r.B}
		case KindEraAdvance:
			ev.Args = map[string]uint64{"era": r.A}
		case KindSegSpill, KindSegRefill:
			ev.Args = map[string]uint64{"blocks": r.A}
		case KindBatchBegin:
			ev.Name, ev.Ph, ev.S = "batch", "B", ""
		case KindBatchEnd:
			ev.Name, ev.Ph, ev.S = "batch", "E", ""
			ev.Args = map[string]uint64{"items": r.A, "retires": r.B}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
