package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }

	v, cached, err := c.Do(ctx, "k", fn)
	if err != nil || cached || v != 42 {
		t.Fatalf("cold Do = (%v, %v, %v), want (42, false, nil)", v, cached, err)
	}
	v, cached, err = c.Do(ctx, "k", fn)
	if err != nil || !cached || v != 42 {
		t.Fatalf("warm Do = (%v, %v, %v), want (42, true, nil)", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, size 1", st)
	}
}

func TestCacheFollowerHonorsOwnContext(t *testing.T) {
	c := NewCache(64)
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-gate
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("follower err = %v, want context.Canceled", err)
	}
}

// joinCtx closes joined the first time Do consults its Done channel,
// which a follower does only once it holds the leader's flight.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestCacheFollowerSurvivesLeaderCancel: a leader whose client hung up
// fails with its own context error, but a live follower of the same key
// must not inherit that cancellation — it retries and gets a value.
func TestCacheFollowerSurvivesLeaderCancel(t *testing.T) {
	c := NewCache(64)
	leaderCtx, cancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (any, error) {
			close(started)
			<-release
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started

	follower := &joinCtx{Context: context.Background(), joined: make(chan struct{})}
	type result struct {
		v   any
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, _, err := c.Do(follower, "k", func() (any, error) { return 2, nil })
		got <- result{v, err}
	}()
	<-follower.joined
	cancel()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	if r := <-got; r.err != nil || r.v != 2 {
		t.Errorf("follower = (%v, %v), want (2, nil)", r.v, r.err)
	}
}
