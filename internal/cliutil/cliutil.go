// Package cliutil is the config plumbing the cmd/ binaries share: signal-
// and timeout-aware contexts, workload-list parsing, and uniform fatal
// error reporting. Keeping it in one place means every driver cancels the
// same way (SIGINT/SIGTERM and -timeout both flow into one context that
// the simulation cores poll) and spells errors the same way.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nda/internal/dist"
	"nda/internal/workload"
)

// Context returns a context cancelled by SIGINT/SIGTERM and, when timeout
// is positive, by the deadline. The returned stop function releases the
// signal handler; call it when the run finishes.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// Specs resolves a comma-separated workload list; the empty string means
// every SPEC CPU 2017 proxy.
func Specs(csv string) ([]workload.Spec, error) {
	if csv == "" {
		return workload.SPEC(), nil
	}
	var specs []workload.Spec
	for _, name := range strings.Split(csv, ",") {
		s, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// WorkerURLs parses a comma-separated -workers fleet list. The empty
// string means "no fleet" (local simulation) and returns nil; otherwise
// every entry must be a valid absolute http/https worker URL, duplicates
// are rejected, and at least one URL must survive trimming — "-workers ,"
// is an error, not an accidental empty fleet.
func WorkerURLs(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var urls []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(csv, ",") {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		u, err := dist.ParseWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("duplicate worker URL %q", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	if len(urls) < 1 {
		return nil, errors.New("-workers given but no worker URLs in it")
	}
	return urls, nil
}

// WorkerCount validates a parallel-worker count flag: 0 means "one per
// CPU", positive counts pass through, negative counts are an error rather
// than a silent fallback.
func WorkerCount(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("worker count %d invalid: want 0 (one per CPU) or a positive count", n)
	}
	return n, nil
}

// Timeout validates a -timeout style duration: 0 means "no limit",
// positive durations pass through, negative durations are an error.
func Timeout(d time.Duration) (time.Duration, error) {
	if d < 0 {
		return 0, fmt.Errorf("timeout %v invalid: want 0 (no limit) or a positive duration", d)
	}
	return d, nil
}

// PositiveDuration validates a duration flag that must be strictly
// positive (per-attempt timeouts, drain budgets). name labels the error.
func PositiveDuration(name string, d time.Duration) (time.Duration, error) {
	if d <= 0 {
		return 0, fmt.Errorf("%s %v invalid: want a positive duration", name, d)
	}
	return d, nil
}

// Rate validates a requests-per-second flag: 0 means unlimited, positive
// finite rates pass through, everything else is an error.
func Rate(v float64) (float64, error) {
	if v < 0 || v != v || v > 1e9 { // v != v catches NaN without importing math
		return 0, fmt.Errorf("rate %v invalid: want 0 (unlimited) or a positive requests/s", v)
	}
	return v, nil
}

// Passes parses a comma-separated -pass list against the known pass
// names. The empty string means "all" and returns nil; otherwise every
// entry must name a known pass, duplicates are rejected, and at least
// one name must survive trimming — "-pass ," is an error, not an
// accidental full run. Results keep the caller's order.
func Passes(csv string, known []string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	valid := make(map[string]bool, len(known))
	for _, n := range known {
		valid[n] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(csv, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown pass %q: want one of %s", name, strings.Join(known, ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate pass %q", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	if len(out) < 1 {
		return nil, errors.New("-pass given but no pass names in it")
	}
	return out, nil
}

// ExplainErr rewrites context cancellation errors into the message the
// drivers print ("timed out" / "interrupted"); other errors pass through.
func ExplainErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errors.New("timed out (-timeout exceeded); partial work discarded")
	case errors.Is(err, context.Canceled):
		return errors.New("interrupted; partial work discarded")
	}
	return err
}

// Check exits with "tool: err" on a non-nil error.
func Check(tool string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, ExplainErr(err))
		os.Exit(1)
	}
}
