package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run the command itself: with
// QUARRYROUTER_TEST_MAIN set, the test binary is quarryrouter and its
// arguments are quarryrouter's.
func TestMain(m *testing.M) {
	if os.Getenv("QUARRYROUTER_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusesFlagsItCannotServeWith: a flag set the router cannot
// serve with ends the process at startup with status 2 and a message
// naming the flag; a non-positive -health-interval must not reach
// time.NewTicker, which panics on it.
func TestRefusesFlagsItCannotServeWith(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replicas", "http://127.0.0.1:1", "-health-interval", "0"}, "-health-interval"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-health-interval", "-2s"}, "-health-interval"},
		{[]string{"-replicas", "http://127.0.0.1:1", "-shard-of", "http://127.0.0.1:2"}, "mutually exclusive"},
		{nil, "-replicas"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "QUARRYROUTER_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("quarryrouter %s: %v, want exit status 2; output:\n%s", strings.Join(tc.args, " "), err, out)
			}
			if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic") {
				t.Fatalf("quarryrouter %s: output does not name %s (or panicked):\n%s", strings.Join(tc.args, " "), tc.want, out)
			}
		})
	}
}
