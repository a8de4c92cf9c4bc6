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

// TestMain lets a test run the command itself: with QUARRYD_TEST_MAIN
// set, the test binary is quarryd and its arguments are quarryd's.
func TestMain(m *testing.M) {
	if os.Getenv("QUARRYD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusesFlagsItWouldIgnore: a flag quarryd would ignore, misread
// or panic on ends the process at startup with status 2 and a message
// naming the flag — not an unsharded primary, a dropped setting, a
// busy loop or a ticker panic.
func TestRefusesFlagsItWouldIgnore(t *testing.T) {
	dir := t.TempDir()
	primary := "http://127.0.0.1:1" // nothing listens: a replica would retry forever
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-shard-index", "3"}, "-shard-index"},
		{[]string{"-shards", "2", "-shard-index", "2"}, "-shard-index"},
		// The directory is never read: the flag is refused first. A fixed
		// path keeps the subtest name the same from run to run.
		{[]string{"-replica-dir", "/srv/quarry"}, "-replica-dir"},
		{[]string{"-replica-interval", "5s"}, "-replica-interval"},
		{[]string{"-replica-of", primary, "-data-dir", dir, "-replica-interval", "0"}, "-replica-interval"},
		{[]string{"-replica-of", primary, "-data-dir", dir, "-replica-interval", "-1s"}, "-replica-interval"},
		{[]string{"-replica-of", primary}, "-data-dir"},
		{[]string{"-replica-of", primary, "-data-dir", dir, "-shards", "2"}, "mutually exclusive"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-sf", "0.01"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "QUARRYD_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("quarryd %s: %v, want exit status 2; output:\n%s", strings.Join(tc.args, " "), err, out)
			}
			if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic") {
				t.Fatalf("quarryd %s: output does not name %s (or panicked):\n%s", strings.Join(tc.args, " "), tc.want, out)
			}
		})
	}
}
