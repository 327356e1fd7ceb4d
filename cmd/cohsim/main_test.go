package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started as
// `<test binary> cohsim ARGS...` (see runCohsim); a plain `go test` never
// passes a bare first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "cohsim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCohsim runs `cohsim args...` in a child process and returns its
// stdout, stderr and exit code.
func runCohsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"cohsim"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestCovertReplayRoundTrip: the archive `covert -save` writes reads back
// through `replay` with a consistent accuracy.
func TestCovertReplayRoundTrip(t *testing.T) {
	f := filepath.Join(t.TempDir(), "run.json")
	if _, stderr, code := runCohsim(t, "covert", "-bits", "64", "-save", f); code != 0 {
		t.Fatalf("covert: exit %d: %s", code, stderr)
	}
	stdout, stderr, code := runCohsim(t, "replay", f)
	if code != 0 || !strings.Contains(stdout, "recomputation matches") {
		t.Fatalf("replay: exit %d, stdout:\n%s\nstderr: %s", code, stdout, stderr)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	_, stderr, code := runCohsim(t, "bogus")
	if code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("exit %d, stderr %q; want exit 2 with usage", code, stderr)
	}
	// A subcommand after a flag is not run as the band report.
	if stdout, stderr, code := runCohsim(t, "-samples", "1", "covert"); code != 2 || stdout != "" {
		t.Fatalf("-samples 1 covert: exit %d, stdout %q, stderr %q; want exit 2 and no report", code, stdout, stderr)
	}
}
