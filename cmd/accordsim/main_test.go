package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"accord/internal/sim"
	"accord/internal/workloads"
)

// TestTraceRewriteNeverRestores writes two traces with different events
// to one path, in turn, and runs each through loadTrace against one
// checkpoint directory, exact and sampled. The second trace must miss
// every checkpoint the first one saved and match its own cold run; the
// first trace, written back, must find its checkpoint again.
func TestTraceRewriteNeverRestores(t *testing.T) {
	cfg := sim.ACCORD(2)
	cfg.Scale, cfg.Cores, cfg.Seed = 8192, 2, 1
	cfg.WarmupInstr, cfg.MeasureInstr = 100_000, 200_000
	cfg.DisableAdaptiveBudgets = true

	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	write := func(t *testing.T, seed int64) {
		src := workloads.MustGet("gcc", 1)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		st := workloads.NewStream(src.Specs[0], cfg.L4Lines(), 1, seed)
		if err := workloads.WriteTrace(f, st, 20_000); err != nil {
			t.Fatal(err)
		}
	}
	load := func(t *testing.T, seed int64) workloads.Workload {
		write(t, seed)
		wl, err := loadTrace(path, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	run := func(cfg sim.Config, wl workloads.Workload) (sim.Result, sim.SampleWork) {
		s := sim.New(cfg, wl)
		res := s.Run(wl.Name)
		return res, s.SampleWork()
	}

	for _, sampled := range []bool{false, true} {
		cfg := cfg
		name := "exact"
		if sampled {
			name = "sampled"
			sc := sim.DefaultSampling(50_000)
			sc.TargetCI, sc.MinIntervals = 0, 2
			cfg.Sampling = sc
			cfg.SampleWorkers = 1
		}
		t.Run(name, func(t *testing.T) {
			stored := cfg
			stored.SpineCheckpointDir = filepath.Join(dir, name)

			a := load(t, 1)
			if _, work := run(stored, a); work.LatticeHits != 0 {
				t.Fatalf("populating run hit %d checkpoints in an empty directory", work.LatticeHits)
			}

			b := load(t, 2)
			if a.Name == b.Name {
				t.Fatalf("traces with different events share the workload name %q", a.Name)
			}
			coldB, _ := run(cfg, b)
			gotB, work := run(stored, b)
			if work.LatticeHits != 0 {
				t.Errorf("rewritten trace restored %d checkpoints of the old one", work.LatticeHits)
			}
			if !reflect.DeepEqual(coldB, gotB) {
				t.Error("rewritten trace's run diverged from its cold run")
			}

			again := load(t, 1)
			if again.Name != a.Name {
				t.Errorf("one trace named %q, then %q", a.Name, again.Name)
			}
			coldA, _ := run(cfg, again)
			gotA, work := run(stored, again)
			// Either run saved one entry: the exact run's warm state, or the
			// sampled run's boundary 0.
			misses := 0
			if sampled {
				misses = work.Dispatched - 1
			}
			if work.LatticeHits != 1 || work.LatticeMisses != misses {
				t.Errorf("first trace, written back, probed %d hits and %d misses; want 1 and %d",
					work.LatticeHits, work.LatticeMisses, misses)
			}
			if !reflect.DeepEqual(coldA, gotA) {
				t.Error("restored trace run diverged from its cold run")
			}
		})
	}
}

// TestMain runs the command itself when a test starts the test binary
// with "--" followed by accordsim arguments, so a test can check exit
// codes and output of the real main; otherwise it runs the tests.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"accordsim"}, os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet("accordsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadScaleFailsValidation runs accordsim at scales that leave the L4
// or the NVM without a valid geometry. Each must fail validation with an
// error naming the scale and exit 2, not panic during assembly.
func TestBadScaleFailsValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "100000000"},
		{"-org", "direct", "-scale", "40000000"},
		{"-org", "banshee", "-scale", "1048576"},
		{"-org", "accord", "-ways", "3", "-scale", "8192"},
		{"-org", "direct", "-scale", "67108864"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			argv := append([]string{"--", "-workload", "mcf", "-cores", "1"}, args...)
			cmd := exec.Command(os.Args[0], argv...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") {
				t.Fatalf("stderr holds a panic:\n%s", msg)
			}
			if scale := args[len(args)-1]; !strings.Contains(msg, "scale "+scale) {
				t.Errorf("error does not name scale %s: %s", scale, msg)
			}
		})
	}
}
