package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"
)

// service is one HTTP handler served on a loopback listener inside the
// benchmark's own process.
type service struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight requests and for the
// serving goroutine to exit.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // already failing; Close only drops connections
	}
	<-s.done
}

// ready polls GET /readyz until it answers 200.
func ready(hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := hc.Get(base + "/readyz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupMedian runs setup reps times, and when reps > 1 on until the
// set-ups have taken setupBudget (at most maxSetupReps times). It keeps
// the last environment, tears down the others, and returns the median
// set-up time in seconds.
func setupMedian[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		times []float64
		spent time.Duration
	)
	for {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return e, 0, err
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		spent += took
		n := len(times)
		if n >= maxSetupReps || n >= reps && (reps == 1 || spent >= setupBudget) {
			return e, median(times), nil
		}
		teardown(e)
		runtime.GC() // so one environment at a time sets the peak RSS
	}
}
