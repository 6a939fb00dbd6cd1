package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ivnt/internal/engine"
)

// TestLinkRoundTripAccounting drives the shared retry core with a fake
// dialer and a scripted round trip: a reconnect is counted only when a
// connection is actually redialed, retryable executor-side failures
// retry on the healthy connection without backoff, and transport
// failures redial with backoff up to SlotFailureLimit.
func TestLinkRoundTripAccounting(t *testing.T) {
	ioErr := &taskFailure{ioErr: errors.New("connection reset")}
	retryable := &taskFailure{taskErr: errors.New("executor lost state"), retryable: true}
	deterministic := &taskFailure{taskErr: errors.New("bad plan")}
	dialErr := errors.New("connection refused")

	cases := []struct {
		name      string
		dialFails int     // leading dial failures
		script    []error // round trip outcomes; the last repeats
		wantErr   bool
		calls     int
		dials     int
		backoffs  int
		reconn    int64
	}{
		{name: "success", script: []error{nil}, calls: 1, dials: 1},
		{name: "retryable then success", script: []error{retryable, retryable, nil}, calls: 3, dials: 1},
		{name: "transport then success", script: []error{ioErr, ioErr, nil}, calls: 3, dials: 3, backoffs: 2, reconn: 2},
		{name: "dial failures then success", dialFails: 2, script: []error{nil}, calls: 1, dials: 3, backoffs: 2, reconn: 1},
		{name: "retryable exhausted", script: []error{retryable}, wantErr: true, calls: 3, dials: 1},
		{name: "transport exhausted", script: []error{ioErr}, wantErr: true, calls: 4, dials: 4, backoffs: 3, reconn: 3},
		{name: "deterministic", script: []error{deterministic}, wantErr: true, calls: 1, dials: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Driver{MaxRetries: 2, SlotFailureLimit: 4}
			stats := engine.NewStatsCollector()
			l := d.newLink("fake:1", stats, nil, false)
			dials, backoffs, calls := 0, 0, 0
			l.dial = func(context.Context, string) (*conn, error) {
				dials++
				if dials <= tc.dialFails {
					return nil, dialErr
				}
				a, b := net.Pipe()
				t.Cleanup(func() { b.Close() })
				return newConn(a), nil
			}
			l.wait = func(context.Context, time.Duration) bool {
				backoffs++
				return true
			}
			err := l.roundTrip(context.Background(), func(*conn) error {
				calls++
				return tc.script[min(calls, len(tc.script))-1]
			})
			l.drop()
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if tc.name == "retryable exhausted" && !engine.IsRetryable(err) {
				t.Fatalf("exhausted retryable failure lost its marker: %v", err)
			}
			if calls != tc.calls || dials != tc.dials || backoffs != tc.backoffs {
				t.Fatalf("calls/dials/backoffs = %d/%d/%d, want %d/%d/%d",
					calls, dials, backoffs, tc.calls, tc.dials, tc.backoffs)
			}
			if got := stats.Reconnects.Load(); got != tc.reconn {
				t.Fatalf("reconnects = %d, want %d", got, tc.reconn)
			}
		})
	}
}

// TestSlotBacksOffAfterRetryableFailure: a task that fails retryably is
// requeued, and the slot waits the backoff for the task's attempt count
// before drawing it again, as it does after a transport failure.
func TestSlotBacksOffAfterRetryableFailure(t *testing.T) {
	d := &Driver{MaxRetries: 3, ReconnectBase: 40 * time.Millisecond, ReconnectMax: time.Second}
	stats := engine.NewStatsCollector()
	q := d.newTaskQueue("task", 1, []int{0}, stats)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.cancel = cancel

	l := d.newLink("fake:1", stats, nil, false)
	l.dial = func(context.Context, string) (*conn, error) {
		a, b := net.Pipe()
		t.Cleanup(func() { b.Close() })
		return newConn(a), nil
	}
	var waits []time.Duration
	l.wait = func(_ context.Context, dur time.Duration) bool {
		waits = append(waits, dur)
		return true
	}
	retryable := &taskFailure{taskErr: errors.New("spill: no space left"), retryable: true}
	calls := 0
	d.runSlot(ctx, l, q, func(_ *conn, _ string, pi, _ int) (bool, error) {
		calls++
		if calls <= 2 {
			return false, retryable
		}
		q.commit(pi, func() {})
		return false, nil
	})
	if calls != 3 || len(waits) != 2 {
		t.Fatalf("calls/waits = %d/%d, want 3/2", calls, len(waits))
	}
	// backoff(n) is jittered within [base·2^(n-1)/2, base·2^(n-1)].
	for i, w := range waits {
		hi := d.ReconnectBase << i
		if w < hi/2 || w > hi {
			t.Fatalf("wait %d = %v, want within [%v, %v]", i+1, w, hi/2, hi)
		}
	}
	if got := stats.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}
