package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with EXPERIMENTS_TEST_MAIN set, so tests can check exit codes and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadOptionsExitWithError checks that a working set too small for a
// workload's regions and a negative run length end the command with exit
// status 1 and a one-line error before any machine runs, not a panic.
func TestBadOptionsExitWithError(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "Table1", "-pages", "5"}, "0 pages"},
		{[]string{"-minutes", "-5"}, "Minutes"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1", c.args, err)
		}
		msg := strings.TrimSpace(stderr.String())
		if !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want one line containing %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", c.args, stdout.String())
		}
	}
}
