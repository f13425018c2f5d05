package runtime

import (
	"errors"
	"fmt"
)

// ErrCanceled resolves futures of invocations dropped by CancelPending
// (e.g. when HPO early-stops the study).
var ErrCanceled = errors.New("runtime: task canceled")

// Future is a handle to a not-yet-computed task result — the runtime's
// data item. Passing a Future as an argument to Submit creates a data
// dependency; WaitOn (compss_wait_on) blocks until it resolves.
//
// Each future identifies a versioned data item (dataID, version), which is
// how the DOT export labels edges "d3v2" like the paper's Figure 3.
type Future struct {
	rt       *Runtime
	producer *invocation
	// index selects which return value of the producer this future carries.
	index   int
	dataID  int
	version int

	resolved bool
	value    interface{}
	err      error
	// producedOn records the node that computed the value, for locality
	// scheduling and transfer modelling. -1 until resolved.
	producedOn int
}

// ID returns the "dNvV" data label used in graph exports.
func (f *Future) ID() string { return fmt.Sprintf("d%dv%d", f.dataID, f.version) }

// TaskID returns the producing invocation's id — the handle CancelTask and
// SetTaskReportHandler identify tasks by. The producer is fixed at Submit
// time, so no lock is needed.
func (f *Future) TaskID() int {
	if f.producer == nil {
		return 0
	}
	return f.producer.id
}

// value access must happen under rt.mu; WaitOn handles that for callers.

// InOut marks a future argument as read-write, creating a new version of
// the same data item produced by the consuming task (the INOUT direction of
// the @task decorator). The consuming task's corresponding return value
// becomes version N+1 of the item.
type InOut struct {
	Future *Future
}
