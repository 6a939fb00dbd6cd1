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
