package serve

// The wire vocabulary: every JSON body the service reads or writes. Clients
// (cmd/reglessload, scripts/smoke, benchmark/) decode with these types, so
// a field is spelled here and nowhere else.

import (
	"encoding/json"

	"repro/internal/mem"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// RunRequest names one simulation in the server's configuration space.
type RunRequest struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// Capacity is the RegLess OSU capacity (registers/SM); 0 means the
	// paper default for RegLess schemes and is ignored for the rest.
	Capacity int `json:"capacity,omitempty"`
	// Report opts this run into deep-dive analysis: the named sections
	// ("stalls", "preload") are computed from an event-instrumented
	// execution and stored on the RunResult. Reported runs are cached
	// under a distinct key, so they never alias plain results.
	Report []string `json:"report,omitempty"`
}

// SweepRequest is the cross product of its fields, in deterministic
// (bench, scheme, capacity) order. Capacities defaults to the paper
// default; Benchmarks and Schemes must be non-empty.
type SweepRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Schemes    []string `json:"schemes"`
	Capacities []int    `json:"capacities,omitempty"`
}

// RunResult is the cacheable payload served for one completed simulation:
// exactly the statistics a direct Suite.Get exposes, plus the server
// configuration that produced them. Its JSON encoding is what the store
// persists, so hits are byte-identical to the original computation.
type RunResult struct {
	Bench    string `json:"bench"`
	Scheme   string `json:"scheme"`
	Capacity int    `json:"capacity"`
	Warps    int    `json:"warps"`
	SMs      int    `json:"sms"`

	Stats sim.Stats         `json:"stats"`
	Prov  sim.ProviderStats `json:"provider"`
	Mem   mem.Stats         `json:"mem"`

	// Report carries the requested deep-dive sections (nil — and omitted
	// from the JSON — for plain runs, so pre-existing cache entries and
	// payload bytes are unchanged).
	Report *RunReport `json:"report,omitempty"`
}

// RunStatus is the poll/fetch view of one submitted run.
type RunStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued | running | done | failed | expired | canceled
	// RequestID is the X-Request-ID of the submission that created the
	// job (omitted from Result payloads — those stay byte-identical to
	// the stored simulation output).
	RequestID string `json:"request_id,omitempty"`
	// Cached reports the result was served from the disk store.
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Error and Diagnostic carry the per-run failure report (sanitizer
	// invariant violation, watchdog trip, MaxCycles abort).
	Error      string                `json:"error,omitempty"`
	Diagnostic *sanitizer.Diagnostic `json:"diagnostic,omitempty"`
}

// SweepStatus is the poll view of a sweep: per-run statuses without the
// (potentially large) result payloads, which are fetched per run or as a
// rendered table.
type SweepStatus struct {
	ID        string      `json:"id"`
	Status    string      `json:"status"` // running | done | failed
	Total     int         `json:"total"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Runs      []RunStatus `json:"runs"`
}

// Health is the /healthz report. Status is "ok" (HTTP 200) while the
// server is healthy; it degrades — always with HTTP 503 so load
// balancers stop routing — in priority order: "draining" (shutdown in
// progress), "overloaded" (admission queue at its limit), "degraded"
// (a run failed with a Diagnostic, or a circuit breaker is open).
type Health struct {
	Status        string  `json:"status"`
	GitSHA        string  `json:"git_sha,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// StoreEntries counts the persisted results on disk (-1 when the
	// listing itself failed); StoreBytes is the entry-file total the GC
	// budget is enforced against.
	StoreEntries int    `json:"store_entries"`
	StoreBytes   int64  `json:"store_bytes"`
	Jobs         int    `json:"jobs"`
	Queued       int64  `json:"queued"`
	Inflight     int64  `json:"inflight"`
	Failures     uint64 `json:"failures"`
	// ArmedFaults, Sanitize, and Watchdog describe the robustness
	// campaign this server runs under, so a degraded status is
	// attributable to injection rather than mistaken for organic decay.
	ArmedFaults  []string       `json:"armed_faults,omitempty"`
	Sanitize     bool           `json:"sanitize,omitempty"`
	Watchdog     uint64         `json:"watchdog,omitempty"`
	LastFailures []FailureBrief `json:"last_failures,omitempty"`
	// Breakers lists quarantined (bench/scheme/capacity) configs.
	Breakers []string `json:"breakers,omitempty"`
}

// FailureBrief is one failed run in the health report.
type FailureBrief struct {
	ID        string `json:"id"`
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	Component string `json:"component,omitempty"`
	Brief     string `json:"brief"`
}
