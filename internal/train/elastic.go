package train

import (
	"fmt"
	"sync"
)

// ElasticControl is the caller-facing trigger surface of an elastic
// run: the Session (or a CLI signal handler) asks the running cluster
// to activate a provisioned spare or to drain a member gracefully. The asynchronous runner binds
// the handlers once the failover runtime exists; triggers before that
// (or after the run ends) fail with a typed error rather than block.
type ElasticControl struct {
	mu    sync.Mutex
	join  func(rank int) error
	drain func(rank int) error
}

// Bind installs the runner's join/drain handlers. Called by the
// training runner at startup; callers never invoke it.
func (ec *ElasticControl) Bind(join, drain func(rank int) error) {
	ec.mu.Lock()
	ec.join, ec.drain = join, drain
	ec.mu.Unlock()
}

// Join asks the run to activate a provisioned spare machine. rank -1
// picks the lowest idle spare. The call returns once the join round is
// enqueued; completion is reported as a ResizeEvent.
func (ec *ElasticControl) Join(rank int) error {
	ec.mu.Lock()
	fn := ec.join
	ec.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("train: no elastic run is active")
	}
	return fn(rank)
}

// Drain asks the run to remove a machine gracefully, streaming its
// tokens to its ring buddy with zero lost updates. rank -1 picks the
// leaver deterministically (highest active rank, preferring machines
// that did not just join).
func (ec *ElasticControl) Drain(rank int) error {
	ec.mu.Lock()
	fn := ec.drain
	ec.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("train: no elastic run is active")
	}
	return fn(rank)
}
