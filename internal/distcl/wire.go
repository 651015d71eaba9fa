package distcl

import "repro/internal/rtl"

// The dist protocol endpoints, mounted by the coordinator under
// /v1/dist/. Every request is a POST with a JSON body; every mutating
// request is idempotent (see the package comment), so the Client can
// retry any of them blindly.
const (
	PathRegister   = "/v1/dist/register"
	PathPoll       = "/v1/dist/poll"
	PathHeartbeat  = "/v1/dist/heartbeat"
	PathComplete   = "/v1/dist/complete"
	PathDeregister = "/v1/dist/deregister"
)

// RegisterRequest announces a worker to the coordinator. Registering
// an already-known WorkerID is idempotent and revives a worker the
// coordinator had declared dead — the re-registration path after a
// coordinator restart or a long partition.
type RegisterRequest struct {
	// WorkerID is the worker's preferred identity; empty lets the
	// coordinator mint one. Stable IDs keep per-worker metric series
	// continuous across reconnects.
	WorkerID string `json:"worker_id,omitempty"`
	// Jobs advertises how many assignments the worker runs at once.
	Jobs int `json:"jobs,omitempty"`
}

// RegisterResponse fixes the worker's identity and the protocol
// cadence: the worker must heartbeat every HeartbeatMillis to keep its
// leases (LeaseTTLMillis) alive, and poll requests block up to
// PollWaitMillis before returning empty.
type RegisterResponse struct {
	WorkerID        string `json:"worker_id"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	PollWaitMillis  int64  `json:"poll_wait_ms"`
}

// PollRequest asks for work. The coordinator long-polls: the response
// is either 200 with an Assignment or 204 after PollWaitMillis with
// nothing to do.
type PollRequest struct {
	WorkerID string `json:"worker_id"`
}

// SearchOptions is the enumeration-shaping subset of the server's
// request options, under the same field names: what a worker's search
// runs with. A worker derives no cache key — the coordinator sends it
// (Assignment.Key) and only logs and echoes it back.
type SearchOptions struct {
	Cap      int  `json:"cap,omitempty"`
	MaxNodes int  `json:"max_nodes,omitempty"`
	Check    bool `json:"check,omitempty"`
	Equiv    bool `json:"equiv,omitempty"`
}

// Assignment is one unit of leased work: enumerate Func under Options
// and report back under AssignmentID. The rtl.Func crosses the wire as
// its plain JSON encoding (every field is exported), which round-trips
// exactly — hash parity with single-node enumeration depends on it.
type Assignment struct {
	AssignmentID string        `json:"assignment_id"`
	Key          string        `json:"key"`
	Func         *rtl.Func     `json:"func"`
	Options      SearchOptions `json:"options"`
	// CheckpointB64 is the space document to resume (base64), absent to
	// start from the function: the last checkpoint uploaded for this
	// work (on a re-dispatch after a lease expiry, or found in the key's
	// space file), so the new worker resumes where the dead one stopped.
	CheckpointB64 string `json:"checkpoint_b64,omitempty"`
	// SearchTimeoutMillis bounds the worker-side search wall time
	// (0 = unlimited), mirroring the coordinator's local limit.
	SearchTimeoutMillis int64 `json:"search_timeout_ms,omitempty"`
	// LeaseGen is the dispatch generation of this lease. The worker
	// echoes it with every heartbeat upload for the assignment; the
	// coordinator rejects uploads carrying a stale generation, which
	// fences off checkpoints from an expired lease arriving after the
	// work was re-dispatched (possibly to the same worker).
	LeaseGen int64 `json:"lease_gen,omitempty"`
}

// HeartbeatAssignment reports progress on one in-flight assignment.
// CheckpointB64, when non-empty, is the worker's latest checkpoint;
// the coordinator validates it (same function, node count never
// shrinking) and keeps it as the assignment's recovery point.
type HeartbeatAssignment struct {
	AssignmentID  string `json:"assignment_id"`
	CheckpointB64 string `json:"checkpoint_b64,omitempty"`
	// LeaseGen echoes the Assignment's lease generation, 1 or more on
	// every dispatch. Any other value than the assignment's current
	// generation — zero included, from a worker that echoed none — marks
	// the entry stale: it is ignored, neither renewing the lease nor
	// uploading the checkpoint.
	LeaseGen int64 `json:"lease_gen,omitempty"`
}

// HeartbeatRequest renews the worker's leases. Draining announces a
// graceful shutdown: the coordinator stops offering the worker new
// work and treats the attached checkpoints as final.
type HeartbeatRequest struct {
	WorkerID    string                `json:"worker_id"`
	Draining    bool                  `json:"draining,omitempty"`
	Assignments []HeartbeatAssignment `json:"assignments,omitempty"`
}

// HeartbeatResponse lists assignments the coordinator no longer wants
// from this worker (reassigned after a lease expiry the worker
// outlived, or a drained flight); the worker cancels them and uploads
// nothing further.
type HeartbeatResponse struct {
	Abandon []string `json:"abandon,omitempty"`
}

// CompleteRequest delivers a finished assignment. SpaceB64 is the space
// document (base64) — its canonical bytes, the file the worker's final
// write left or what Save writes — and SpaceHash the SHA-256 of
// SpaceB64's decoded bytes, so also the space's canonical hash. The
// coordinator holds the upload to the SHA-256 of what Save writes of
// its decode. SpaceHash is the idempotency key:
// re-submitting the same completion is acknowledged as a duplicate, and
// a conflicting hash for an already completed assignment is rejected.
// An Aborted completion (cap or timeout hit on the worker) carries the
// reason instead of a space.
type CompleteRequest struct {
	WorkerID     string `json:"worker_id"`
	AssignmentID string `json:"assignment_id"`
	Key          string `json:"key"`
	SpaceHash    string `json:"space_hash,omitempty"`
	SpaceB64     string `json:"space_b64,omitempty"`
	Aborted      bool   `json:"aborted,omitempty"`
	AbortReason  string `json:"abort_reason,omitempty"`
}

// CompleteResponse acknowledges a completion: "accepted" the first
// time, "duplicate" for an idempotent re-submission.
type CompleteResponse struct {
	Status string `json:"status"`
}

// DeregisterRequest removes the worker cleanly; its remaining leases
// are released for immediate re-dispatch rather than waiting out the
// TTL.
type DeregisterRequest struct {
	WorkerID string `json:"worker_id"`
}
