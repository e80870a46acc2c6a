// Package service is the memtestd network front-end: an HTTP server
// that turns the memtest library into a streaming fleet-diagnosis
// service with durable, disk-spooled jobs.
//
// Clients submit memtest.Plan-based jobs as JSON and read per-device
// results back as NDJSON while the diagnosis is still running — the
// stream is backed directly by Session.RunFleet's iterator, so a
// device's result is on the wire as soon as its worker finishes
// (unordered delivery, the service default).
//
// The HTTP surface:
//
//	POST   /v1/jobs              submit a fleet job        -> 202 JobStatus
//	GET    /v1/jobs              list jobs                 -> 200 []JobStatus
//	GET    /v1/jobs/{id}         job status                -> 200 JobStatus
//	DELETE /v1/jobs/{id}         cancel a job              -> 200 JobStatus
//	GET    /v1/jobs/{id}/results stream results            -> 200 NDJSON
//	POST   /v1/diagnose          one-shot single device    -> 200 memtest.Result
//	GET    /v1/schemes           registered engine names   -> 200 []string
//	GET    /v1/healthz           liveness + capacity       -> 200 Health
//
// Every line of a results stream is one memtest.DeviceResult, exactly
// as json.Marshal renders it — byte-identical to running the same
// seeded plan through Session.RunFleet in-process. A failed or
// cancelled job terminates its stream with one {"error": "..."} line.
// ?offset=N skips the first N spooled lines (pagination / resume);
// ?cancel_on_disconnect=true makes a vanishing reader cancel the job.
//
// # Persistence
//
// Job state lives in a repro/service/store Store. Results are spooled
// as they are produced — one append-only NDJSON file per job plus a
// small JSON manifest — so replaying a stream to a late reader costs
// a bounded line-offset index, not an in-memory copy of every result.
// With the in-memory store (the default when Config.Store is nil)
// jobs die with the process; with a disk store (store.NewDisk, the
// memtestd -data-dir flag) NewManager recovers the data directory on
// startup: finished jobs re-stream byte-identically, and jobs that
// were queued or running when the previous process died are marked
// failed with their spooled prefix still streamable. Config.RetainJobs
// and Config.RetainBytes bound retention; the oldest finished jobs
// are evicted first.
//
// # Scheduling
//
// Jobs flow through a Manager: a bounded queue (submissions beyond it
// fail with HTTP 429) feeding a fixed pool of scheduler workers, each
// running one job at a time. The fleet-worker pool is shared
// dynamically: a job starting on an otherwise idle manager borrows
// the whole pool, one starting alongside queued work takes a fair
// split of what is still available (never less than one worker), and
// every grant returns to the ledger when its job finishes. Each job
// runs under its own context; DELETE — or a results reader that set
// cancel_on_disconnect and went away — cancels it, and the engines
// abort within one poll interval.
//
// The lifecycle itself — job table, backlog, scheduler workers,
// manifests, recovery, followers, cancel, retention and close — is
// the Kernel. The Manager adds only how a job runs and the
// fleet-worker ledger; memtest-coord's coordinator runs on the same
// Kernel with shard dispatch and an ordered merge instead.
//
// The typed Go client lives in repro/service/client; cmd/memtestd is
// the server binary and examples/fleetclient a complete driver. See
// docs/OPERATIONS.md for the operator-facing reference.
package service
