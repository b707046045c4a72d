package launch

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/collector"
	"repro/internal/obs/prof"
	"repro/internal/par"
	"repro/internal/par/nettrans"
)

// Harness owns one launcher process's lifecycle: its place in the
// SPMD job, the run collector, the per-rank observability server, the
// tracer, metrics registry and reporter, the profile session, the
// signal flush, the dumps, and the single exit path that releases all
// of it.
//
// A process is one of four things. With Transport "inproc" it runs
// the whole machine as goroutines and is rank 0. With a socket
// transport it is either the job root (rank 0, which creates the
// registry, serves the collector and spawns ranks 1..size-1), a rank
// that root spawned (found in the environment), or a rank launched by
// hand (Join).
//
// Dumps follow one naming rule: an in-process run writes FILE; every
// rank of a multi-process run writes FILE.rank<r>. A dump flushed by
// the signal handler gets a further ".interrupted" suffix.
type Harness struct {
	// Name prefixes messages and names the collector job and the
	// private registry directory (Name-registry-*).
	Name string

	// The shared flag family. Flags binds the first four; a command
	// that offers -transport, -trace-out or -prof-dir binds those to
	// the fields itself.
	ObsAddr string
	// EventsOut and TraceOut are dump bases (see the naming rule).
	EventsOut string
	// Collector is a host:port the job root serves a run collector
	// on, or the http:// URL of a running collector to stream to.
	Collector       string
	CollectorLinger time.Duration
	TraceOut        string
	ProfDir         string
	// Transport is "inproc" (or empty), "tcp" or "unix".
	Transport string

	// Job identity, set by Start or Join. A root launcher may preset
	// Registry; Start creates (and the exit path removes) a private
	// one when it is empty.
	Rank, Size int
	Registry   string
	Epoch      uint64
	// Net is the socket transport template. Start and Join fill in
	// the identity fields; a launcher may preset Listen, Peers and
	// Liveness.
	Net nettrans.Config

	// Set by Start and Join. Trans is nil for an in-process machine
	// and Fleet is non-nil only on a spawning root. Tracer and Metrics
	// exist when any telemetry output is on; a launcher that needs a
	// tracer regardless presets Tracer.
	Trans        par.Transport
	Fleet        *Fleet
	Tracer       *obs.Tracer
	Metrics      *obs.Registry
	CollectorURL string // the collector this process reports to

	mu           sync.Mutex // Start/Join vs the signal flush
	closeOnce    sync.Once
	closeErr     error
	ownsRegistry bool
	colSrv       *obs.Server
	obsSrv       *obs.Server
	rep          *collector.Reporter
	profSess     *prof.Session
	atExit       []func()
}

// New returns a harness for the named command, in-process by default.
func New(name string) *Harness {
	return &Harness{Name: name, Transport: "inproc"}
}

// Flags registers the telemetry flags every launcher shares.
func (h *Harness) Flags(fs *flag.FlagSet) {
	fs.StringVar(&h.ObsAddr, "obs-addr", "", "serve /metrics, /trace, /analyze and /debug/pprof on this host:port while running (spawned ranks get ephemeral ports, published to the registry)")
	fs.StringVar(&h.EventsOut, "events-out", "", "write the raw events dump to this file; each rank of a multi-process run writes FILE.rank<r> (input for traceanalyze; merge with tracecheck -events)")
	fs.StringVar(&h.Collector, "collector", "", "run a live telemetry collector on this host:port, or stream to a running one's http:// URL; every rank streams health, metrics and trace deltas to it (poll with asmtop)")
	fs.DurationVar(&h.CollectorLinger, "collector-linger", 2*time.Second, "keep the collector serving this long after the run completes so pollers observe the final state")
}

// UsageError marks a bad flag value or combination; Exit maps it to
// status 2.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, a ...any) error {
	return UsageError{fmt.Errorf(format, a...)}
}

// Start places this process in a size-rank job and brings up its
// telemetry: in-process with Transport "inproc", otherwise as the
// spawned rank the environment names or as the spawning job root.
func (h *Harness) Start(size int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Size = size
	switch h.Transport {
	case "", "inproc":
		if err := h.serveCollector(); err != nil {
			return err
		}
		return h.telemetry()
	case "tcp", "unix":
	default:
		return Usagef("unknown -transport %q (inproc, tcp, unix)", h.Transport)
	}
	if size < 2 {
		return Usagef("-transport %s needs at least 2 ranks", h.Transport)
	}
	c, isChild, err := FromEnv()
	if err != nil {
		return err
	}
	if isChild {
		// The parent decides per-rank observability: a child listens
		// on the ephemeral address it forwarded (or not at all) and
		// streams to the collector it started.
		h.ObsAddr, h.Collector = c.ObsAddr, c.Collector
		return h.join(c)
	}
	if h.Registry == "" {
		if h.Registry, err = os.MkdirTemp("", h.Name+"-registry-"); err != nil {
			return err
		}
		h.ownsRegistry = true
	}
	h.Epoch = newEpoch()
	if err := h.serveCollector(); err != nil {
		return err
	}
	tel := Telemetry{Collector: h.CollectorURL}
	if h.ObsAddr != "" {
		tel.ObsAddr = "127.0.0.1:0" // per-rank ephemeral server, address published to the registry
	}
	if h.Fleet, err = Spawn(size, h.Transport, h.Registry, h.Epoch, tel); err != nil {
		return err
	}
	return h.join(Child{Size: size, Network: h.Transport, Registry: h.Registry, Epoch: h.Epoch})
}

// Join places this process in a socket job as the rank c names,
// launched by hand rather than spawned. It streams to a collector
// only by URL: serving one is the job root's business.
func (h *Harness) Join(c Child) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.Collector != "" && !isURL(h.Collector) {
		return Usagef("-collector %s is a listen address; a hand-launched rank takes a running collector's http:// URL", h.Collector)
	}
	return h.join(c)
}

func (h *Harness) join(c Child) error {
	h.Rank, h.Size, h.Transport, h.Registry, h.Epoch = c.Rank, c.Size, c.Network, c.Registry, c.Epoch
	if h.CollectorURL == "" {
		h.CollectorURL = h.Collector
	}
	cfg := h.Net
	cfg.Rank, cfg.Size, cfg.Network, cfg.RegistryDir, cfg.Epoch = c.Rank, c.Size, c.Network, c.Registry, c.Epoch
	if len(cfg.Peers) == 0 && cfg.RegistryDir == "" {
		return Usagef("need a rendezvous registry directory or a full peer list")
	}
	t, err := nettrans.New(cfg)
	if err != nil {
		return err
	}
	h.Trans = t
	return h.telemetry()
}

// serveCollector resolves the collector a job root reports to: a URL
// names a running one, a listen address gets one served here.
func (h *Harness) serveCollector() error {
	if h.Collector == "" || isURL(h.Collector) {
		h.CollectorURL = h.Collector
		return nil
	}
	var err error
	h.colSrv, h.CollectorURL, err = startCollector(collector.Config{Ranks: h.Size, Job: h.Name}, h.Collector, h.Registry, h.Epoch)
	if err != nil {
		return err
	}
	fmt.Printf("collector on %s (/status /ranks /healthz /readyz /analyze/live /events)\n", h.CollectorURL)
	return nil
}

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// telemetry brings up this rank's tracer, metrics, obs server,
// reporter and profile session.
func (h *Harness) telemetry() error {
	if h.ObsAddr != "" || h.EventsOut != "" || h.TraceOut != "" || h.CollectorURL != "" {
		if h.Tracer == nil {
			h.Tracer = obs.NewTracer(h.Size, obs.DefaultRingCap)
		}
		h.Metrics = obs.NewRegistry()
	}
	if h.ObsAddr != "" {
		srv, err := serveRankObs(h.ObsAddr, h.Rank, h.Metrics, h.Tracer, h.Registry, h.Epoch, analyze.Endpoint(h.Tracer))
		if err != nil {
			return err
		}
		h.obsSrv = srv
		fmt.Printf("%sobservability server on http://%s (/metrics /trace /timeline /analyze /debug/pprof)\n", h.rankTag(), srv.Addr)
	}
	if h.CollectorURL != "" {
		covers := []int{h.Rank}
		if h.Trans == nil {
			covers = allRanks(h.Size) // one tracer spans the whole machine
		}
		h.rep = collector.StartReporter(collector.ReporterConfig{
			URL: h.CollectorURL, Rank: h.Rank, Covers: covers, Job: h.Name,
			Tracer: h.Tracer, Registry: h.Metrics,
		})
	}
	if h.ProfDir != "" {
		// PID-unique stems keep ranks, and successive attempts of one
		// job, from clobbering each other in a shared directory.
		s, err := prof.Start(prof.Config{
			Dir:      h.ProfDir,
			Name:     fmt.Sprintf("rank%d-p%d", h.Rank, os.Getpid()),
			Registry: h.Metrics,
		})
		if err != nil {
			// Profiling must never take the run down.
			h.warn("profiling disabled: %v", err)
		} else {
			h.profSess = s
		}
	}
	return nil
}

// rankTag prefixes a message with the rank in a multi-process run.
func (h *Harness) rankTag() string {
	if h.Trans == nil {
		return ""
	}
	return fmt.Sprintf("rank %d: ", h.Rank)
}

func (h *Harness) warn(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s"+format+"\n", append([]any{h.Name, h.rankTag()}, a...)...)
}

// AtExit registers f to run on the exit path, after the transport and
// fleet are down (last registered runs first). f runs with the
// harness locked and must not call back into it.
func (h *Harness) AtExit(f func()) {
	h.atExit = append(h.atExit, f)
}

// OnSignal installs the signal flush: SIGINT or SIGTERM runs the exit
// path with an "interrupted" verdict, writing the dumps with an extra
// ".interrupted" suffix and closing the collector without lingering,
// then exits 128+signal.
func (h *Harness) OnSignal() {
	OnSignal(func(sig os.Signal) {
		h.close(fmt.Errorf("interrupted: %s", sig), ".interrupted")
	})
}

// StopProfile ends the profile session, if one is running: it prints
// where the artifacts went (rank 0) and uploads the CPU profile to
// the collector. The exit path calls it; a caller that needs the
// artifacts complete earlier calls it first.
func (h *Harness) StopProfile() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopProfile()
}

func (h *Harness) stopProfile() {
	if h.profSess == nil {
		return
	}
	arts, err := h.profSess.Stop()
	h.profSess = nil
	if err != nil {
		h.warn("profile stop: %v", err)
		return
	}
	if h.Rank == 0 {
		fmt.Printf("profile artifacts: %s (asmprof %s)\n", arts.CPU, h.ProfDir)
	}
	if h.rep != nil {
		data, err := os.ReadFile(arts.CPU)
		if err == nil {
			err = h.rep.PostProfile(filepath.Base(arts.CPU), data)
		}
		if err != nil {
			h.warn("profile upload: %v", err)
		}
	}
}

// Close runs the exit path once, with err as the run's verdict (nil =
// success): stop the profile; write the dumps; final-flush the
// reporter; close the obs server and the transport; on failure kill
// the spawned ranks; reap them; run the AtExit hooks; close the
// collector after its linger; remove a private registry. It returns
// err, or the first dump write error when err is nil. Later calls
// return the first call's result.
func (h *Harness) Close(err error) error {
	return h.close(err, "")
}

func (h *Harness) close(err error, dumpSuffix string) error {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.stopProfile()
		var dump *obs.Dump
		if h.Tracer != nil {
			// One snapshot for the events file and the final flush, so
			// the collector's merged trace is byte-identical to
			// merging the dump files.
			dump = h.Tracer.Dump()
			if werr := h.writeDumps(dump, dumpSuffix); err == nil {
				err = werr
			}
		}
		reason := ""
		if err != nil {
			reason = err.Error()
		}
		h.rep.Close(dump, err == nil, reason)
		if h.obsSrv != nil {
			h.obsSrv.Close()
		}
		if h.Trans != nil {
			if cerr := h.Trans.Close(); cerr != nil {
				h.warn("transport close: %v", cerr)
			}
		}
		if h.Fleet != nil {
			if err != nil {
				h.Fleet.KillAll()
			}
			for r, werr := range h.Fleet.Wait() {
				if werr != nil && err == nil {
					h.warn("rank %d exited: %v", r, werr)
				}
			}
		}
		for i := len(h.atExit) - 1; i >= 0; i-- {
			h.atExit[i]()
		}
		if h.colSrv != nil {
			if dumpSuffix == "" {
				time.Sleep(h.CollectorLinger)
			}
			h.colSrv.Close()
		}
		if h.ownsRegistry {
			if rerr := os.RemoveAll(h.Registry); rerr != nil {
				h.warn("remove registry: %v", rerr)
			}
		}
		h.closeErr = err
	})
	return h.closeErr
}

// writeDumps writes the -trace-out and -events-out files under the
// naming rule, returning the first error.
func (h *Harness) writeDumps(d *obs.Dump, suffix string) error {
	var first error
	write := func(base string, to func(io.Writer) error) {
		if base == "" {
			return
		}
		path := base + suffix
		if h.Trans != nil {
			path = fmt.Sprintf("%s.rank%d%s", base, h.Rank, suffix)
		}
		f, err := os.Create(path)
		if err == nil {
			if err = to(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
		}
		if err != nil {
			h.warn("%v", err)
			if first == nil {
				first = err
			}
			return
		}
		fmt.Printf("wrote %s\n", path)
	}
	write(h.TraceOut, h.Tracer.WriteChromeTrace)
	write(h.EventsOut, d.WriteJSON)
	return first
}

// Exit is a launcher's single exit path: it prints a non-nil err,
// runs Close, and leaves with status 0 (nil), 2 (a UsageError) or 1.
func (h *Harness) Exit(err error) {
	if err != nil {
		h.warn("%v", err)
	}
	err = h.Close(err)
	var usage UsageError
	switch {
	case err == nil:
		os.Exit(0)
	case errors.As(err, &usage):
		os.Exit(2)
	}
	os.Exit(1)
}

// Finish is Exit for a rank whose run returned: exit's verdict decides
// the status, so a worker the master fenced out exits non-zero with
// its reason instead of reporting success.
func (h *Harness) Finish(exit par.Exit) {
	if !exit.OK {
		h.Exit(fmt.Errorf("rank %d died: %s", h.Rank, exit.Reason))
	}
	h.Exit(nil)
}
