package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test starts the test binary
// with "--" followed by tracegen arguments, so a test can check exit
// codes and output of the real main; otherwise it runs the tests.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"tracegen"}, os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet("tracegen", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadScaleFailsValidation runs tracegen at scales no system can be
// built at. Each must fail validation with an error naming the scale and
// exit 2 without writing a trace, not panic or size a stream from a
// wrapped-around capacity.
func TestBadScaleFailsValidation(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		t.Run("scale "+scale, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "--", "-workload", "mcf", "-events", "4", "-scale", scale)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") {
				t.Fatalf("stderr holds a panic:\n%s", msg)
			}
			if !strings.Contains(msg, "scale "+scale) {
				t.Errorf("error does not name scale %s: %s", scale, msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote %d bytes of trace:\n%s", stdout.Len(), stdout.String())
			}
		})
	}
}
