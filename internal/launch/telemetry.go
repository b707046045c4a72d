package launch

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/collector"
	"repro/internal/par/nettrans"
)

// CollectorService is the rendezvous-registry service name under which
// a run's collector base URL is published, so asmtop (and late-joining
// workers) can discover the collector from the registry directory
// alone.
const CollectorService = "collector"

// RankObsService is the registry service name under which rank r's own
// observability server address is published. With per-rank ephemeral
// ports the registry is the only place the bound address exists.
func RankObsService(r int) string { return fmt.Sprintf("obs-rank-%d", r) }

// startCollector starts the run-scoped telemetry collector listening
// on addr, publishes its base URL into the rendezvous registry (when
// registry is non-empty), and returns its HTTP server and the URL.
// The caller owns the server; close it only after every rank's final
// flush has landed (i.e. after Fleet.Wait).
func startCollector(cfg collector.Config, addr, registry string, epoch uint64) (*obs.Server, string, error) {
	srv, err := collector.New(cfg).Serve(addr)
	if err != nil {
		return nil, "", err
	}
	url := "http://" + srv.Addr
	if registry != "" {
		if err := nettrans.PublishService(registry, CollectorService, url, epoch); err != nil {
			srv.Close()
			return nil, "", fmt.Errorf("launch: publish collector: %w", err)
		}
	}
	return srv, url, nil
}

// serveRankObs starts one rank's own observability server and, when a
// registry directory is given, publishes the bound address so the
// rank is individually scrapeable even behind an ephemeral port.
func serveRankObs(addr string, rank int, reg *obs.Registry, tr *obs.Tracer, registry string, epoch uint64, extra ...obs.Endpoint) (*obs.Server, error) {
	srv, err := obs.Serve(addr, reg, tr, extra...)
	if err != nil {
		return nil, err
	}
	if registry != "" {
		if err := nettrans.PublishService(registry, RankObsService(rank), "http://"+srv.Addr, epoch); err != nil {
			srv.Close()
			return nil, fmt.Errorf("launch: publish rank obs: %w", err)
		}
	}
	return srv, nil
}

// allRanks returns [0..size), the Covers list for an in-process run
// whose single tracer spans every rank.
func allRanks(size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = i
	}
	return out
}
