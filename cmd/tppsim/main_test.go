package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with TPPSIM_TEST_MAIN set, so tests can check exit codes and output.
func TestMain(m *testing.M) {
	if os.Getenv("TPPSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTooFewPagesExitsWithError checks that a working set too small for
// the profile's regions ends the command with a non-zero exit and the
// simulator's error on stderr, not a panic.
func TestTooFewPagesExitsWithError(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "Web1", "-pages", "99"},
		{"-workload", "Cache1", "-pages", "5"},
	} {
		cmd := exec.Command(os.Args[0], append(args, "-minutes", "1")...)
		cmd.Env = append(os.Environ(), "TPPSIM_TEST_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("%v: err = %v, want a non-zero exit", args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, "0 pages") || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want the empty-region error and no panic", args, msg)
		}
	}
}

// TestNegativeMinutesExitsWithError checks that a negative run length
// ends the command with exit status 1 and a one-line error naming the
// field, instead of a run that never ends.
func TestNegativeMinutesExitsWithError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-workload", "Cache1", "-pages", "2048", "-minutes", "-5")
	cmd.Env = append(os.Environ(), "TPPSIM_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit status 1", err)
	}
	if msg := strings.TrimSpace(stderr.String()); !strings.Contains(msg, "Minutes") || strings.Contains(msg, "\n") {
		t.Errorf("stderr %q, want one line naming Minutes", msg)
	}
}
