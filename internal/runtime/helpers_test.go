package runtime

import "time"

// Now returns the backend's current time (wall-clock since start, or
// virtual).
func (rt *Runtime) Now() time.Duration { return rt.backend.now() }
