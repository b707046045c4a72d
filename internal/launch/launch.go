// Package launch turns a single binary into a multi-process SPMD
// job. The parent process (rank 0) re-executes itself once per worker
// rank with the same argument list plus a handful of environment
// variables; each child detects those variables at startup, builds a
// socket transport from them, and runs only its own rank. Because
// every process parses the same flags, deterministic input loading
// and preprocessing reproduce the identical fragment set in each
// rank without shipping it over the wire.
package launch

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	rankEnv      = "ASM_SPMD_RANK"
	sizeEnv      = "ASM_SPMD_SIZE"
	networkEnv   = "ASM_SPMD_NETWORK"
	registryEnv  = "ASM_SPMD_REGISTRY"
	epochEnv     = "ASM_SPMD_EPOCH"
	obsEnv       = "ASM_SPMD_OBS"       // per-rank obs server listen addr ("" = off)
	collectorEnv = "ASM_SPMD_COLLECTOR" // run collector base URL
)

// Child describes this process's role in a spawned SPMD job.
type Child struct {
	Rank     int
	Size     int
	Network  string // "tcp" or "unix"
	Registry string // rendezvous registry directory
	Epoch    uint64

	// Telemetry wiring inherited from the parent. ObsAddr is this
	// rank's own observability listen address (parents pass an
	// ephemeral ":0"-style address so every rank is individually
	// scrapeable; the rank publishes the bound address back into the
	// registry). Collector is the run collector's base URL. Both empty
	// when the parent ran without telemetry.
	ObsAddr   string
	Collector string
}

// Telemetry is the optional observability wiring Spawn forwards to
// every child rank through the environment.
type Telemetry struct {
	ObsAddr   string // children listen here (use "127.0.0.1:0" for per-rank ephemeral ports)
	Collector string // run collector base URL children report to
}

// env renders the telemetry wiring as environment entries.
func (t Telemetry) env() []string {
	var out []string
	if t.ObsAddr != "" {
		out = append(out, obsEnv+"="+t.ObsAddr)
	}
	if t.Collector != "" {
		out = append(out, collectorEnv+"="+t.Collector)
	}
	return out
}

// FromEnv reports whether this process was re-executed as a worker
// rank, and with what parameters.
func FromEnv() (Child, bool, error) {
	rs := os.Getenv(rankEnv)
	if rs == "" {
		return Child{}, false, nil
	}
	var c Child
	var err error
	if c.Rank, err = strconv.Atoi(rs); err != nil {
		return Child{}, false, fmt.Errorf("launch: bad %s=%q", rankEnv, rs)
	}
	if c.Size, err = strconv.Atoi(os.Getenv(sizeEnv)); err != nil {
		return Child{}, false, fmt.Errorf("launch: bad %s=%q", sizeEnv, os.Getenv(sizeEnv))
	}
	if c.Epoch, err = strconv.ParseUint(os.Getenv(epochEnv), 10, 64); err != nil {
		return Child{}, false, fmt.Errorf("launch: bad %s=%q", epochEnv, os.Getenv(epochEnv))
	}
	c.Network = os.Getenv(networkEnv)
	c.Registry = os.Getenv(registryEnv)
	if c.Registry == "" {
		return Child{}, false, fmt.Errorf("launch: %s set but %s empty", rankEnv, registryEnv)
	}
	c.ObsAddr = os.Getenv(obsEnv)
	c.Collector = os.Getenv(collectorEnv)
	if c.Rank < 1 || c.Rank >= c.Size {
		return Child{}, false, fmt.Errorf("launch: child rank %d out of range for size %d", c.Rank, c.Size)
	}
	return c, true, nil
}

// Fleet is the set of worker-rank processes spawned by rank 0.
type Fleet struct {
	mu    sync.Mutex // guards procs: a kill may race the reaping
	procs map[int]*exec.Cmd
}

// Spawn re-executes the current binary as ranks 1..size-1 of a job
// rooted at this process (which becomes rank 0). Children inherit
// the parent's arguments verbatim; their stdout is redirected to the
// parent's stderr so rank 0 alone owns the job's stdout. tel forwards
// observability wiring to every child.
func Spawn(size int, network, registry string, epoch uint64, tel Telemetry) (*Fleet, error) {
	f := &Fleet{procs: make(map[int]*exec.Cmd)}
	for r := 1; r < size; r++ {
		cmd, err := SelfExec(append([]string{
			rankEnv + "=" + strconv.Itoa(r),
			sizeEnv + "=" + strconv.Itoa(size),
			networkEnv + "=" + network,
			registryEnv + "=" + registry,
			epochEnv + "=" + strconv.FormatUint(epoch, 10),
		}, tel.env()...), os.Args[1:]...)
		if err == nil {
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			err = cmd.Start()
		}
		if err != nil {
			f.KillAll()
			f.Wait()
			return nil, fmt.Errorf("launch: spawn rank %d: %w", r, err)
		}
		f.procs[r] = cmd
	}
	return f, nil
}

// Kill delivers SIGKILL to one worker rank — the failure-injection
// primitive for conformance tests (a killed process cannot flush,
// drain, or say goodbye).
func (f *Fleet) Kill(rank int) error {
	f.mu.Lock()
	cmd, ok := f.procs[rank]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("launch: no spawned process for rank %d", rank)
	}
	return cmd.Process.Signal(syscall.SIGKILL)
}

// KillAll forcibly terminates every spawned rank (cleanup path).
func (f *Fleet) KillAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, cmd := range f.procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// Wait reaps every spawned rank not yet reaped and returns the
// per-rank exit error (nil for a clean exit). A second call returns
// an empty map.
func (f *Fleet) Wait() map[int]error {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	out := make(map[int]error, len(procs))
	for r, cmd := range procs {
		out[r] = cmd.Wait()
	}
	return out
}

// KillInClustering SIGKILLs worker rank as soon as tr, rank 0's
// tracer, shows the master protocol loop: every rank has then passed
// the GST barrier, so the kill lands mid-clustering however quickly
// the host built the tree. It reports whether the kill was sent, and
// gives up when stop is closed.
func (f *Fleet) KillInClustering(tr *obs.Tracer, rank int, stop <-chan struct{}) bool {
	var cursor uint64
	for {
		var evs []obs.Event
		evs, cursor, _ = tr.EventsSince(0, cursor)
		for _, e := range evs {
			if e.Kind == obs.EvPhaseEnter && e.A == obs.PhaseMaster {
				return f.Kill(rank) == nil
			}
		}
		select {
		case <-stop:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// newEpoch derives a job epoch from the wall clock. Epochs distinguish
// concurrent or successive jobs sharing a registry directory; they
// need only be unique per registry, not globally.
func newEpoch() uint64 {
	return uint64(time.Now().UnixNano())
}

// SelfExec builds (without starting) a command that re-executes the
// current binary with the given arguments and extra environment
// entries appended to the inherited environment. It is the common
// primitive behind SPMD rank spawning and the job service's
// supervised runner processes.
func SelfExec(extraEnv []string, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("launch: resolve executable: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	return cmd, nil
}
