package launch

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// exitTestEnv, when set, makes the test binary the rank-0 root of the
// exit-path test; its value is the test's temporary directory. Spawned
// ranks inherit it and find their identity in the ASM_SPMD_* env.
const exitTestEnv = "LAUNCH_EXIT_TEST_DIR"

const exitTestSize = 3

func TestMain(m *testing.M) {
	if dir := os.Getenv(exitTestEnv); dir != "" {
		exitTestProcess(dir)
		return
	}
	os.Exit(m.Run())
}

// exitTestProcess runs one rank of a job that fails rank 0 right
// after spawn. Workers mark themselves ready and then sit mid-run:
// only rank 0's exit path can end them early.
func exitTestProcess(dir string) {
	h := New("launchtest")
	h.Transport = "tcp"
	h.EventsOut = filepath.Join(dir, "ev.json")
	if err := h.Start(exitTestSize); err != nil {
		fmt.Fprintln(os.Stderr, "launchtest:", err)
		os.Exit(3)
	}
	if h.Rank != 0 {
		os.WriteFile(filepath.Join(dir, "ready."+strconv.Itoa(h.Rank)), nil, 0o644)
		time.Sleep(2 * time.Minute)
		os.Exit(0)
	}
	deadline := time.Now().Add(60 * time.Second)
	for r := 1; r < exitTestSize; r++ {
		for {
			if _, err := os.Stat(filepath.Join(dir, "ready."+strconv.Itoa(r))); err == nil {
				break
			}
			if time.Now().After(deadline) {
				h.Exit(fmt.Errorf("rank %d never became ready", r))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var pids []string
	h.Fleet.mu.Lock()
	for _, cmd := range h.Fleet.procs {
		pids = append(pids, strconv.Itoa(cmd.Process.Pid))
	}
	h.Fleet.mu.Unlock()
	os.WriteFile(filepath.Join(dir, "pids"), []byte(strings.Join(pids, "\n")), 0o644)
	h.Exit(errors.New("injected failure after spawn"))
}

// TestExitPathReapsFleet fails rank 0 of a real 3-process job after
// its workers are up, and requires the single exit path to have
// killed and reaped every worker, removed the private registry, and
// still written rank 0's events dump.
func TestExitPathReapsFleet(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd, err := SelfExec([]string{exitTestEnv + "=" + dir, "TMPDIR=" + tmp})
	if err != nil {
		t.Fatal(err)
	}
	// A file, not a pipe: a surviving worker would hold a pipe open
	// and stall the wait until it exits on its own.
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Run()
	out, _ := os.ReadFile(filepath.Join(dir, "log"))
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("rank 0 exit = %v, want status 1\n%s", err, out)
	}
	t.Logf("rank 0 output:\n%s", out)
	if !strings.Contains(string(out), "injected failure after spawn") {
		t.Fatalf("rank 0 did not fail where injected:\n%s", out)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "pids"))
	if err != nil {
		t.Fatal(err)
	}
	pids := strings.Fields(string(raw))
	if len(pids) != exitTestSize-1 {
		t.Fatalf("recorded %d worker pids, want %d", len(pids), exitTestSize-1)
	}
	for _, p := range pids {
		pid, _ := strconv.Atoi(p)
		// signal 0 probes existence; a reaped process is gone.
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still exists after rank 0 exited", pid)
			syscall.Kill(pid, syscall.SIGKILL)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "launchtest-registry-*")); len(left) > 0 {
		t.Errorf("registry left behind: %v", left)
	}
	if _, err := obs.ReadDumpFile(filepath.Join(dir, "ev.json.rank0")); err != nil {
		t.Errorf("rank 0 events dump: %v", err)
	}
}

// TestInprocDumpNaming: an in-process run writes its dumps under the
// bare names, and a clean Close returns no error.
func TestInprocDumpNaming(t *testing.T) {
	dir := t.TempDir()
	h := New("launchtest")
	h.EventsOut = filepath.Join(dir, "ev.json")
	h.TraceOut = filepath.Join(dir, "trace.json")
	if err := h.Start(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadDumpFile(h.EventsOut); err != nil {
		t.Errorf("events dump: %v", err)
	}
	if _, err := os.Stat(h.TraceOut); err != nil {
		t.Errorf("trace dump: %v", err)
	}
}

// TestCloseRunsOnce: the signal flush and the main goroutine's exit
// can race; the exit path runs exactly once, so exactly one of the
// two dump names appears and both callers get the same verdict.
func TestCloseRunsOnce(t *testing.T) {
	dir := t.TempDir()
	h := New("launchtest")
	h.EventsOut = filepath.Join(dir, "ev.json")
	if err := h.Start(2); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- h.close(errors.New("interrupted: test"), ".interrupted") }()
	go func() { errs <- h.Close(nil) }()
	first, second := <-errs, <-errs
	if (first == nil) != (second == nil) {
		t.Fatalf("callers saw different verdicts: %v vs %v", first, second)
	}
	_, plain := os.Stat(h.EventsOut)
	_, interrupted := os.Stat(h.EventsOut + ".interrupted")
	if (plain == nil) == (interrupted == nil) {
		t.Fatalf("want exactly one dump, got plain=%v interrupted=%v", plain == nil, interrupted == nil)
	}
}
